package sched

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dpmr/internal/consist"
	"dpmr/internal/dpmr"
	"dpmr/internal/extlib"
	"dpmr/internal/failpt"
	"dpmr/internal/interp"
	"dpmr/internal/ir"
	"dpmr/internal/opt"
	"dpmr/internal/workloads"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/verdicts.json from the current checker")

// verdictPin is one pinned group run: its configuration and the full
// consistency report checked on its trace.
type verdictPin struct {
	Case   string          `json:"case"`
	Report *consist.Report `json:"report"`
}

// verdictModes are the trace regimes every pinned group runs under: no
// failpoint, one dropped event (early, or mid-run where the concurrent
// workloads share data), every event dropped from some point on, and a
// per-thread cap small enough to truncate.
var verdictModes = []struct {
	name  string
	drops string // mem/trace-drop schedule ("" = none)
	limit int
}{
	{"clean", "", 0},
	{"drop@9", "mem/trace-drop=drop@9", 0},
	{"drop@40", "mem/trace-drop=drop@40", 0},
	{"drop@700", "mem/trace-drop=drop@700", 0},
	{"drop@30+", "mem/trace-drop=drop@30+", 0},
	{"limit64", "", 64},
}

// toggleModule builds a group whose threads all cycle one shared global
// through the values 0, 1 and 2, reading it back after every store. The
// concurrent workloads never store a value twice to one location, so a
// dropped store there can only surface as a thin-air read; here it
// surfaces as a stale read whenever the value it hid was stored before.
func toggleModule() *ir.Module {
	m := ir.NewModule("toggle")
	b := ir.NewBuilder(m)
	m.AddGlobal("cell", ir.I64)
	cycle := func(tid *ir.Reg) {
		b.ForRange("i", b.I64(0), b.I64(24), func(i *ir.Reg) {
			b.Store(b.GlobalAddr("cell"), b.Bin(ir.OpURem, b.Add(i, tid), b.I64(3)))
			b.Load(b.GlobalAddr("cell"))
		})
	}
	w := b.Function("worker", ir.Void, []string{"tid"}, ir.I64)
	cycle(w.Params[0])
	b.Ret(nil)
	b.Function("main", ir.I64, nil)
	cycle(b.I64(0))
	b.Ret(b.I64(0))
	m.Freeze()
	return m
}

// verdictPins runs the pinned grid: chash, cpipe, csteal, the
// crashing-worker group and the toggle group at 2 to 4 threads, the
// first three plain and DPMR-transformed (SDS, MDS), under two schedule
// seeds and every verdictModes regime.
func verdictPins(t *testing.T) []verdictPin {
	t.Helper()
	type module struct {
		name    string
		build   func(threads int) *ir.Module
		designs bool
	}
	var mods []module
	for _, name := range []string{"chash", "cpipe", "csteal"} {
		w, err := workloads.ConcurrentByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, module{name, w.Build, true})
	}
	mods = append(mods,
		module{"crashworker", func(int) *ir.Module { return crashWorkerModule() }, false},
		module{"toggle", func(int) *ir.Module { return toggleModule() }, false})
	var pins []verdictPin
	for _, mod := range mods {
		for threads := 2; threads <= 4; threads++ {
			for _, d := range []struct {
				name   string
				design dpmr.Design
			}{{"stdapp", 0}, {"sds", dpmr.SDS}, {"mds", dpmr.MDS}} {
				if d.name != "stdapp" && !mod.designs {
					continue
				}
				m, externs := mod.build(threads), extlib.Base()
				if d.name != "stdapp" {
					xm, err := dpmr.Transform(m, dpmr.Config{Design: d.design, Seed: 11})
					if err != nil {
						t.Fatal(err)
					}
					opt.Run(xm)
					m, externs = xm, extlib.Wrapped(d.design)
				}
				m.Freeze()
				for _, seed := range []int64{3, 8} {
					for _, mode := range verdictModes {
						if mode.drops != "" {
							if err := failpt.Arm(mode.drops); err != nil {
								t.Fatal(err)
							}
						}
						res := Run(m, Config{Threads: threads, Seed: seed, TraceLimit: mode.limit, VM: interp.Config{
							Externs: externs, Seed: seed + 100, StepLimit: testStepLimit,
						}})
						failpt.Disarm()
						pins = append(pins, verdictPin{
							Case:   fmt.Sprintf("%s/%d/%s/seed%d/%s", mod.name, threads, d.name, seed, mode.name),
							Report: consist.Check(res.Trace),
						})
					}
				}
			}
		}
	}
	return pins
}

// TestLiveVerdictPins: every report byte the checker gives on the pinned
// grid — event and drop counts, truncation, and each violation with its
// class, thread, sequence numbers and values — matches the verdicts
// pinned in testdata/verdicts.json. The pins cover both violation
// classes, a truncated trace and a dropped event.
func TestLiveVerdictPins(t *testing.T) {
	t.Cleanup(failpt.Disarm)
	got, err := json.MarshalIndent(verdictPins(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "verdicts.json")
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		var pins []verdictPin
		if err := json.Unmarshal(got, &pins); err != nil {
			t.Fatal(err)
		}
		var wantPins []verdictPin
		if err := json.Unmarshal(want, &wantPins); err != nil {
			t.Fatal(err)
		}
		for i := range pins {
			if i >= len(wantPins) || !bytes.Equal(mustJSON(t, pins[i]), mustJSON(t, wantPins[i])) {
				t.Fatalf("pin %d (%s) differs:\ngot:  %s", i, pins[i].Case, mustJSON(t, pins[i]))
			}
		}
		t.Fatalf("got %d pins, testdata holds %d", len(pins), len(wantPins))
	}
	var pins []verdictPin
	if err := json.Unmarshal(want, &pins); err != nil {
		t.Fatal(err)
	}
	classes := map[string]int{}
	truncated, dropped := 0, 0
	for _, p := range pins {
		for _, v := range p.Report.Violations {
			classes[v.Class]++
		}
		if p.Report.Truncated {
			truncated++
		}
		if p.Report.Dropped > 0 {
			dropped++
		}
	}
	if classes[consist.ClassStaleRead] == 0 || classes[consist.ClassThinAir] == 0 || truncated == 0 || dropped == 0 {
		t.Fatalf("pins too tame: violations by class %v, %d truncated, %d dropped", classes, truncated, dropped)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
