package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aggcavsat/internal/cli"
)

func writeWCNF(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "p.wcnf")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunGolden pins the MaxSAT-evaluation output and exit statuses: 30
// with the optimum and its model, 20 when the hard clauses are
// unsatisfiable.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		name, wcnf, want string
		code             cli.ExitCode
	}{
		{
			name: "optimum",
			wcnf: "p wcnf 2 3 100\n100 1 2 0\n3 -1 0\n5 -2 0\n",
			want: "c solver: rc2, sat calls: 3, conflicts: 0\no 3\ns OPTIMUM FOUND\nv 1 -2 0\n",
			code: 30,
		},
		{
			name: "unsat",
			wcnf: "p wcnf 1 3 100\n100 1 0\n100 -1 0\n1 1 0\n",
			want: "s UNSATISFIABLE\n",
			code: 20,
		},
	} {
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"-progress", "-progress-every", "1", writeWCNF(t, tc.wcnf)}, &stdout, &stderr)
		var code cli.ExitCode
		if !errors.As(err, &code) || code != tc.code {
			t.Errorf("%s: run error = %v, want exit status %d", tc.name, err, tc.code)
		}
		if stdout.String() != tc.want {
			t.Errorf("%s: stdout =\n%s\nwant\n%s", tc.name, stdout.String(), tc.want)
		}
		if !strings.Contains(stderr.String(), "search progress") {
			t.Errorf("%s: -progress printed no table header:\n%s", tc.name, stderr.String())
		}
	}
}

func TestRunUsageAndBadInput(t *testing.T) {
	var code cli.ExitCode
	if err := run(context.Background(), nil, &bytes.Buffer{}, &bytes.Buffer{}); !errors.As(err, &code) || code != 2 {
		t.Errorf("no problem file: run error = %v, want exit status 2", err)
	}
	err := run(context.Background(), []string{writeWCNF(t, "p cnf 1 1\n1 0\n")}, &bytes.Buffer{}, &bytes.Buffer{})
	if err == nil || errors.As(err, &code) {
		t.Errorf("malformed WCNF: run error = %v, want a plain error", err)
	}
}
