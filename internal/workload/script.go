package workload

import (
	"fmt"
	"strings"

	"pascalr/internal/value"
)

// UniversityScript renders the Figure 1 university database at the
// given scale as one PASCAL/R script: the DDL followed by one :+
// insertion per generated tuple. Executing the script through the
// public API reproduces the exact generator contents — and, because
// the mutation history is identical, the same live statistics — so two
// databases populated from the same script plan and count identically.
// The CLI, the pascald daemon, and the loopback differential tests all
// load through this one path.
func UniversityScript(scale int) (string, error) {
	gen, err := University(DefaultConfig(scale))
	if err != nil {
		return "", err
	}
	maxN := max(scale, 99)
	courses := scale/2 + 1
	maxC := max(courses, 99)
	var b strings.Builder
	fmt.Fprintf(&b, `
TYPE statustype = (student, technician, assistant, professor);
     nametype   = PACKED ARRAY [1..10] OF char;
     titletype  = PACKED ARRAY [1..40] OF char;
     roomtype   = PACKED ARRAY [1..5] OF char;
     yeartype   = 1900..1999;
     timetype   = 8000900..18002000;
     daytype    = (monday, tuesday, wednesday, thursday, friday);
     leveltype  = (freshman, sophomore, junior, senior);
     enumbertype = 1..%d;
     cnumbertype = 1..%d;
VAR employees : RELATION <enr> OF
      RECORD enr : enumbertype; ename : nametype; estatus : statustype END;
    papers : RELATION <ptitle, penr> OF
      RECORD penr : enumbertype; pyear : yeartype; ptitle : titletype END;
    courses : RELATION <cnr> OF
      RECORD cnr : cnumbertype; clevel : leveltype; ctitle : titletype END;
    timetable : RELATION <tenr, tcnr, tday> OF
      RECORD tenr : enumbertype; tcnr : cnumbertype; tday : daytype;
             ttime : timetype; troom : roomtype END;
`, maxN, maxC)
	// Render generated tuples as :+ statements, mapping enumeration
	// ordinals back to labels through the generator's catalog.
	for _, relName := range []string{"employees", "papers", "courses", "timetable"} {
		rel, _ := gen.Relation(relName)
		if err := rel.Scan(nil, func(_ value.Value, tup []value.Value) bool {
			b.WriteString(relName + " :+ [<")
			for i, v := range tup {
				if i > 0 {
					b.WriteString(", ")
				}
				switch v.Kind() {
				case value.KindInt:
					fmt.Fprintf(&b, "%d", v.AsInt())
				case value.KindString:
					fmt.Fprintf(&b, "'%s'", strings.ReplaceAll(v.AsString(), "'", "''"))
				case value.KindEnum:
					t, _ := gen.Catalog().Type(v.EnumType())
					b.WriteString(t.Label(v.EnumOrd()))
				}
			}
			b.WriteString(">];\n")
			return true
		}); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}
