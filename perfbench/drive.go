package main

// Executing one Spec and checking its report: in-process on a fresh
// Runner (the campaign and concurrent workloads) or through the dpmrd
// fleet (the fleet workload). Starting a Spec means calling
// RunCampaign/RunOverhead/RunConcurrent, or Submit; a Spec's latency
// ends when its rendered report has passed its checks.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	coordnet "dpmr/internal/coord/net"
	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// report is one Spec's checked, rendered result.
type report struct {
	text   []byte
	trials int
	// campaign is the merged campaign result of a fleet Spec, kept for
	// the in-process byte-identity check.
	campaign *harness.CampaignResult
}

// runLocal executes the Spec in-process on a fresh Runner at Parallel 1,
// as each dpmr-run/dpmr-exp invocation does, and checks it: the trials
// executed equal PlanTrials and no concurrent trial violated consistency.
func runLocal(ctx context.Context, spec harness.Spec) (report, error) {
	r := harness.NewRunner()
	done := 0
	r.Events = func(ev harness.Event) {
		if _, ok := ev.(harness.TrialDone); ok {
			done++
		}
	}
	var buf bytes.Buffer
	switch spec.Kind {
	case harness.SpecCampaign:
		cr, err := r.RunCampaign(ctx, spec)
		if err != nil {
			return report{}, err
		}
		renderCampaign(&buf, cr)
	case harness.SpecOverhead:
		or, err := r.RunOverhead(ctx, spec)
		if err != nil {
			return report{}, err
		}
		renderOverhead(&buf, or)
	case harness.SpecConcurrent:
		cr, err := r.RunConcurrent(ctx, spec)
		if err != nil {
			return report{}, err
		}
		if err := checkConsistent(cr); err != nil {
			return report{}, err
		}
		harness.RenderConcurrent(&buf, cr)
	default:
		return report{}, fmt.Errorf("unexpected %s spec", spec.Kind)
	}
	if err := checkTrials(r, spec, done); err != nil {
		return report{}, err
	}
	return report{text: buf.Bytes(), trials: done}, nil
}

func checkTrials(r *harness.Runner, spec harness.Spec, done int) error {
	planned, err := r.PlanTrials(spec)
	if err != nil {
		return err
	}
	if done != planned {
		return fmt.Errorf("%d trials executed, PlanTrials says %d", done, planned)
	}
	return nil
}

func checkConsistent(cr *harness.ConcurrentResult) error {
	for _, byW := range cr.Cells {
		for name, c := range byW {
			if c.ConsistViol != 0 {
				return fmt.Errorf("%s: consistency violations in %.2f of trials", name, c.ConsistViol)
			}
		}
	}
	return nil
}

// runLocalTraced executes the Spec through the harness's partial path —
// PlanTrials, Golden, Run*Partial, encode/decode, Merge*, render — with a
// span around each call, then replays it layer by layer. The replay must
// reproduce the plan's trial count, the harness's module builds and
// every trial's outcome.
func runLocalTraced(ctx context.Context, spec harness.Spec, tr *tracer) (report, error) {
	spec, err := spec.Normalized()
	if err != nil {
		return report{}, err
	}
	r := harness.NewRunner()
	id := tr.begin("harness.plan_s")
	planned, err := r.PlanTrials(spec)
	tr.end(id)
	if err != nil {
		return report{}, err
	}
	if spec.Kind != harness.SpecConcurrent {
		for _, name := range spec.Workloads {
			w, err := workloads.ByName(name)
			if err != nil {
				return report{}, err
			}
			id := tr.begin("harness.golden_s")
			_, err = r.Golden(w)
			tr.end(id)
			if err != nil {
				return report{}, err
			}
		}
	}

	var buf bytes.Buffer
	var outcomes []harness.TrialOutcome
	var cycles []uint64
	render := func(f func()) {
		id := tr.begin("harness.render_s")
		f()
		tr.end(id)
	}
	switch spec.Kind {
	case harness.SpecCampaign, harness.SpecConcurrent:
		id := tr.begin("harness.trials_s")
		var p *harness.PartialResult
		if spec.Kind == harness.SpecCampaign {
			p, err = r.RunCampaignPartial(ctx, spec)
		} else {
			p, err = r.RunConcurrentPartial(ctx, spec)
		}
		tr.end(id)
		if err != nil {
			return report{}, err
		}
		q, err := roundTrip(tr, p.Encode, harness.DecodePartial)
		if err != nil {
			return report{}, err
		}
		outcomes = q.Outcomes
		id = tr.begin("harness.merge_s")
		if spec.Kind == harness.SpecCampaign {
			cr, err := r.MergeCampaign(spec, []*harness.PartialResult{q})
			tr.end(id)
			if err != nil {
				return report{}, err
			}
			render(func() { renderCampaign(&buf, cr) })
		} else {
			cr, err := r.MergeConcurrent(spec, []*harness.PartialResult{q})
			tr.end(id)
			if err != nil {
				return report{}, err
			}
			if err := checkConsistent(cr); err != nil {
				return report{}, err
			}
			render(func() { harness.RenderConcurrent(&buf, cr) })
		}
	case harness.SpecOverhead:
		id := tr.begin("harness.trials_s")
		p, err := r.RunOverheadPartial(ctx, spec)
		tr.end(id)
		if err != nil {
			return report{}, err
		}
		q, err := roundTrip(tr, p.Encode, harness.DecodeOverheadPartial)
		if err != nil {
			return report{}, err
		}
		cycles = q.Cycles
		id = tr.begin("harness.merge_s")
		or, err := r.MergeOverhead(spec, []*harness.OverheadPartial{q})
		tr.end(id)
		if err != nil {
			return report{}, err
		}
		render(func() { renderOverhead(&buf, or) })
	}
	builds := r.CacheStats().Builds
	tr.add("harness.modules_built", float64(builds))

	rp, err := replay(spec, tr)
	if err != nil {
		return report{}, err
	}
	switch {
	case rp.trials() != planned:
		return report{}, fmt.Errorf("replay ran %d trials, PlanTrials says %d", rp.trials(), planned)
	case rp.modules != builds:
		return report{}, fmt.Errorf("replay built %d modules, the harness %d", rp.modules, builds)
	case len(outcomes)+len(cycles) != planned:
		return report{}, fmt.Errorf("harness ran %d trials, PlanTrials says %d", len(outcomes)+len(cycles), planned)
	case !slices.Equal(rp.outcomes, outcomes) || !slices.Equal(rp.cycles, cycles):
		return report{}, fmt.Errorf("replay outcomes differ from the harness's")
	}
	return report{text: buf.Bytes(), trials: planned}, nil
}

// roundTrip encodes a partial and decodes it back, as a partial file or
// a fleet frame carries it.
func roundTrip[P any](tr *tracer, encode func(io.Writer) error, decode func(io.Reader) (P, error)) (P, error) {
	id := tr.begin("harness.codec_s")
	defer tr.end(id)
	var wire bytes.Buffer
	if err := encode(&wire); err != nil {
		var zero P
		return zero, err
	}
	tr.add("harness.partial_bytes", float64(wire.Len()))
	return decode(&wire)
}

// fleet is the in-process dpmrd deployment of the fleet workload: a
// coordnet.Server with one local worker, one remote WorkerLoop worker on
// its Unix socket, and a journal root that starts empty.
type fleet struct {
	addr     string
	dir      string
	cancel   context.CancelFunc
	served   chan error
	worked   chan error
	stopOnce sync.Once
	stopErr  error
}

// startFleet listens on dir's socket and returns once both workers have
// joined.
func startFleet(dir string) (*fleet, error) {
	// The joined path holds a "/", which makes coordnet dial it as a Unix
	// socket.
	f := &fleet{addr: filepath.Join(dir, "dpmrd.sock"), dir: dir, served: make(chan error, 1), worked: make(chan error, 1)}
	ln, err := coordnet.Listen(f.addr)
	if err != nil {
		return nil, err
	}
	srv := coordnet.NewServer(coordnet.ServerConfig{LocalWorkers: 1, JournalRoot: filepath.Join(dir, "journal")})
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() { f.served <- srv.Serve(ctx, ln) }()
	go func() { f.worked <- coordnet.WorkerLoop(ctx, f.addr, harness.Options{Parallel: 1}, nil) }()
	deadline := time.Now().Add(30 * time.Second)
	for srv.FleetSize() < 2 {
		select {
		case err := <-f.worked:
			f.worked <- err
			_ = f.stop()
			return nil, fmt.Errorf("fleet worker did not join: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			_ = f.stop()
			return nil, fmt.Errorf("fleet worker did not join within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return f, nil
}

// stop drains the daemon and its worker and waits for both to exit.
// Calls after the first return the first call's result.
func (f *fleet) stop() error {
	f.stopOnce.Do(func() {
		f.cancel()
		serr, werr := <-f.served, <-f.worked
		f.stopErr = serr
		if serr == nil {
			f.stopErr = werr
		}
	})
	return f.stopErr
}

// run submits one Spec, merges the shard payloads client-side as
// dpmr-run -remote does, and checks the trial count against PlanTrials.
// Traced, it records the Submit span with each shard's compute placed
// inside it at its arrival time minus its elapsed time, the client's
// decode, plan, merge and render, and then prices the daemon's journal
// from outside by replaying the received payloads into a fresh journal.
func (f *fleet) run(ctx context.Context, i int, spec harness.Spec, tr *tracer) (report, error) {
	type arrival struct {
		at      time.Time
		elapsed time.Duration
	}
	var arrivals []arrival
	var sink func(harness.Event)
	if tr != nil {
		sink = func(ev harness.Event) {
			if sm, ok := ev.(harness.ShardMerged); ok {
				arrivals = append(arrivals, arrival{time.Now(), sm.Elapsed})
			}
		}
	}
	id := tr.begin("net.self_s")
	payloads, err := coordnet.Submit(ctx, f.addr, spec, sink)
	for _, a := range arrivals {
		tr.place("net.shard_s", a.at.Add(-a.elapsed), a.at)
	}
	tr.end(id)
	if err != nil {
		return report{}, err
	}
	tr.add("coord.shards", float64(len(arrivals)))

	id = tr.begin("harness.codec_s")
	parts := make([]*harness.PartialResult, len(payloads))
	for k, payload := range payloads {
		tr.add("harness.partial_bytes", float64(len(payload)))
		if parts[k], err = harness.DecodePartial(bytes.NewReader(payload)); err != nil {
			break
		}
	}
	tr.end(id)
	if err != nil {
		return report{}, err
	}
	r := harness.NewRunner()
	id = tr.begin("harness.merge_s")
	cr, err := r.MergeCampaign(spec, parts)
	tr.end(id)
	if err != nil {
		return report{}, err
	}
	var buf bytes.Buffer
	id = tr.begin("harness.render_s")
	renderCampaign(&buf, cr)
	tr.end(id)
	trials := 0
	for _, p := range parts {
		trials += p.Hi - p.Lo
	}
	id = tr.begin("harness.plan_s")
	err = checkTrials(r, spec, trials)
	tr.end(id)
	if err != nil {
		return report{}, err
	}
	tr.add("harness.modules_built", float64(r.CacheStats().Builds))
	if tr != nil {
		journaled, err := f.replayJournal(i, spec, payloads, tr)
		if err != nil {
			return report{}, err
		}
		if journaled != trials {
			return report{}, fmt.Errorf("journal replay covered %d trials, PlanTrials says %d", journaled, trials)
		}
	}
	return report{text: buf.Bytes(), trials: trials, campaign: cr}, nil
}

// replayJournal appends the received payloads to a fresh journal, as
// the daemon does for each first-completed shard, and returns the trials
// they cover.
func (f *fleet) replayJournal(i int, spec harness.Spec, payloads [][]byte, tr *tracer) (int, error) {
	id := tr.begin("journal.append_s")
	defer tr.end(id)
	j, _, err := harness.OpenJournal(filepath.Join(f.dir, "replay", strconv.Itoa(i)), false, spec)
	if err != nil {
		return 0, err
	}
	covered := 0
	for _, payload := range payloads {
		p, err := harness.AppendCampaignPayload(j, payload)
		if err != nil {
			_ = j.Close()
			return 0, err
		}
		tr.add("journal.appends", 1)
		covered += p.Hi - p.Lo
	}
	return covered, j.Close()
}
