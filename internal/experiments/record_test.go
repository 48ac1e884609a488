//go:build experimentscheck

package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestRecordMatchesCode is `make experiments-check`: it runs every registered
// experiment at the committed record's options (quick mode, seed 1) and holds
// each table to its block of experiments_output.txt and to its generated
// section of EXPERIMENTS.md, with the cells of its wall-clock columns masked
// on both sides. One subtest per experiment ID, so `-run
// TestRecordMatchesCode/table4` checks one table. Regenerate the record with
//
//	skynet-experiments -exp all -quiet -md tables.md > experiments_output.txt
//
// and paste tables.md's sections into EXPERIMENTS.md.
func TestRecordMatchesCode(t *testing.T) {
	out := readFile(t, "../../experiments_output.txt")
	md := readFile(t, "../../EXPERIMENTS.md")
	if n := strings.Count("\n"+out, "\n=== "); n != len(Registry()) {
		t.Errorf("experiments_output.txt has %d tables, the registry %d", n, len(Registry()))
	}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(Options{Quick: true, Seed: 1})
			got := tab.Render()
			head, _, _ := strings.Cut(got, "\n")
			_, rest, ok := strings.Cut("\n"+out, "\n"+head+"\n")
			if !ok {
				t.Fatalf("%s: experiments_output.txt has no block %q", tab.ID, head)
			}
			end := strings.Index(rest, "\n\n=== ")
			if end < 0 {
				end = len(strings.TrimRight(rest, "\n"))
			}
			sameLines(t, tab.ID, "experiments_output.txt",
				maskRendered(got, tab.WallClock), maskRendered(head+"\n"+rest[:end+1], tab.WallClock))

			got = tab.Markdown()
			head, _, _ = strings.Cut(got, "\n")
			_, rest, ok = strings.Cut("\n"+md, "\n"+head+"\n")
			if !ok {
				t.Fatalf("%s: EXPERIMENTS.md has no section %q", tab.ID, head)
			}
			n := strings.Count(got, "\n")
			lines := strings.SplitAfter(head+"\n"+rest, "\n")
			if len(lines) > n {
				lines = lines[:n]
			}
			sameLines(t, tab.ID, "EXPERIMENTS.md",
				maskMarkdown(got, tab.WallClock), maskMarkdown(strings.Join(lines, ""), tab.WallClock))
		})
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameLines fails, naming the table and the first line that differs, unless
// the code's rendering equals the record's.
func sameLines(t *testing.T, id, file, got, record string) {
	t.Helper()
	g, r := strings.Split(got, "\n"), strings.Split(record, "\n")
	for i := 0; i < len(g) || i < len(r); i++ {
		var gl, rl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(r) {
			rl = r[i]
		}
		if gl != rl {
			t.Errorf("%s: line %d: the code prints\n\t%q\n%s has\n\t%q", id, i+1, gl, file, rl)
			return
		}
	}
}
