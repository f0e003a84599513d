package sched

import "pascalr/internal/obs"

// Scheduler metrics. The async backlog gauge is updated under the
// executor's mutex (the value it reports is defined by that state);
// the counter is a plain atomic.
var (
	mAsyncJobs = obs.GetCounter("pascal_sched_async_jobs_total",
		"Background maintenance jobs accepted by the async executor")
	mAsyncBacklog = obs.GetGauge("pascal_sched_async_backlog_count",
		"Background maintenance jobs pending on the async executor")
)
