package sched

import "pascalr/internal/obs"

// Scheduler metrics. The async backlog gauge is updated under the
// executor's mutex (the value it reports is defined by that state);
// the counters are plain atomics.
var (
	mJobs = obs.GetCounter("pascal_sched_jobs_total",
		"Jobs executed by the bounded worker pool")
	mJobLatency = obs.GetHistogram("pascal_sched_job_seconds",
		"Per-job run time on pool workers; the _sum is cumulative worker busy time")
	mAsyncJobs = obs.GetCounter("pascal_sched_async_jobs_total",
		"Background maintenance jobs accepted by the async executor")
	mAsyncBacklog = obs.GetGauge("pascal_sched_async_backlog_count",
		"Background maintenance jobs pending on the async executor")
)
