package lint_test

import (
	"go/token"
	"strings"
	"testing"

	"fantasticjoules/internal/lint"
)

// TestSuiteRegistration pins the multichecker's analyzer set: every
// analyzer is fully populated and names are unique and sorted, so the
// -analyzers flag and the docs stay navigable.
func TestSuiteRegistration(t *testing.T) {
	all := lint.Analyzers()
	want := []string{"deadline", "determinism", "epochdiscipline", "lockdiscipline", "metricname", "scratchsafety", "unitsafety"}
	if len(all) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}

func TestByName(t *testing.T) {
	cases := []struct {
		name    string
		in      []string
		want    []string
		wantErr string
	}{
		{name: "subset in request order", in: []string{"unitsafety", "deadline"}, want: []string{"unitsafety", "deadline"}},
		{name: "duplicates collapse", in: []string{"metricname", "metricname", "deadline", "metricname"}, want: []string{"metricname", "deadline"}},
		{name: "unknown name errors", in: []string{"nope"}, wantErr: "nope"},
		{name: "empty request", in: nil, want: []string{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := lint.ByName(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ByName(%v) error = %v, want error mentioning %q", tc.in, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ByName(%v): %v", tc.in, err)
			}
			names := make([]string, len(got))
			for i, a := range got {
				names[i] = a.Name
			}
			if len(names) != len(tc.want) {
				t.Fatalf("ByName(%v) = %v, want %v", tc.in, names, tc.want)
			}
			for i := range names {
				if names[i] != tc.want[i] {
					t.Fatalf("ByName(%v) = %v, want %v", tc.in, names, tc.want)
				}
			}
		})
	}
}

func TestFindingString(t *testing.T) {
	f := lint.Finding{
		Analyzer: "deadline",
		Pos:      token.Position{Filename: "internal/snmp/client.go", Line: 80, Column: 9},
		Message:  "Write on a conn without a deadline",
	}
	got := f.String()
	want := "internal/snmp/client.go:80:9: [deadline] Write on a conn without a deadline"
	if got != want {
		t.Fatalf("Finding.String() = %q, want %q", got, want)
	}
}
