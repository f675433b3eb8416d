package harness

// Resumable, adaptively sized execution of any plan kind over a
// crash-safe journal (internal/journal). The flow: Runner.Resume diffs
// the canonical plan against the journal's replayed records by plan
// fingerprint and computes the uncovered gaps; Resume.Spans cuts those
// gaps into explicit trial spans whose sizes follow the observed
// per-trial cost in the journal (slow regions get smaller spans, so a
// straggling span loses less work to the next interruption) — and the
// cut is a pure function of (journal bytes, Spec), so a resumed plan is
// reproducible; the journaled span loop (RunJournaled, and coord.Run
// through Resume.Append) then executes the spans, appending
// each completed partial to the journal before moving on, and finishes
// with the ordinary fingerprint-validated exact-tiling merge, which is
// what guarantees a resumed run's report is byte-identical to an
// uninterrupted run and that no trial is ever dropped or double-counted.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"dpmr/internal/failpt"
	"dpmr/internal/journal"
)

// Failpoint sites on the session/resume paths: harness/resume fails
// the plan-vs-journal diff (a resume that cannot trust its replay must
// refuse, not guess), harness/span fails one span execution inside a
// journaled run (the retry/refusal behavior of the drivers above it is
// what the drill exercises).
var (
	siteResume = failpt.Register("harness/resume", failpt.KindErr)
	siteSpan   = failpt.Register("harness/span", failpt.KindErr)
)

// DefaultResumeSpans is how many spans a journaled in-process run cuts
// its remaining work into. Deliberately independent of the worker count:
// the re-cut plan — and therefore the journal's record layout — must be
// identical whether the resumed run executes with 1 or 8 workers.
const DefaultResumeSpans = 8

// Resume is the diff of any kind's plan against a journal replay, and
// the rest of the resumed run: Spans cuts the gaps, Append journals each
// span's result, Snapshot renders progress, and Merge finishes.
type Resume struct {
	r      *Runner
	pl     *planned
	j      *journal.Journal
	parts  []partial   // covered ranges, replayed then appended
	PlanFP string      // the plan fingerprint shard records are journaled under
	Total  int         // the plan's trial count
	Gaps   []ShardSpec // ranges the replay left uncovered, ascending; empty when complete
}

// Resume recomputes the Spec's canonical plan and diffs it against the
// journal replay: records journaled under this plan's fingerprint are
// decoded and re-validated (payload shape, fingerprint, and the record's
// range against the payload's — a mismatch means the journal was
// tampered with past its checksums and is refused as corrupt);
// everything the records do not cover becomes a gap. rp may be nil (a
// fresh journal): every trial is then a gap. Append journals to j, which
// may be nil for a Resume that only plans.
func (r *Runner) Resume(spec Spec, j *journal.Journal, rp *journal.Replay) (*Resume, error) {
	if err := failpt.Err(siteResume); err != nil {
		return nil, err
	}
	if err := r.validate(); err != nil {
		return nil, err
	}
	pl, err := r.plan(spec, "", "Resume")
	if err != nil {
		return nil, err
	}
	c := &Resume{r: r, pl: pl, j: j, PlanFP: pl.fingerprint, Total: pl.total}
	if rp != nil {
		for _, rec := range rp.Plan(pl.fingerprint) {
			p, err := pl.decodeRecord(rec)
			if err != nil {
				return nil, err
			}
			c.parts = append(c.parts, p)
		}
	}
	c.Gaps, err = rangeGaps(c.parts, pl.total)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// decodeRecord decodes one journal record's payload as a partial of the
// plan and cross-checks it against the record envelope. The journal's
// checksum already proved the payload is the bytes that were appended;
// these checks prove those bytes mean what the envelope says, so nothing
// merges on the strength of metadata alone.
func (pl *planned) decodeRecord(rec journal.Record) (partial, error) {
	p, err := pl.decode(bytes.NewReader(rec.Payload))
	if err != nil {
		return nil, fmt.Errorf("%w: journaled payload for trials [%d, %d): %v", journal.ErrCorrupt, rec.Lo, rec.Hi, err)
	}
	s := p.span()
	if s.fingerprint != pl.fingerprint {
		return nil, fmt.Errorf("%w: journaled payload for trials [%d, %d) was cut from plan %.12s, record claims %.12s",
			journal.ErrCorrupt, rec.Lo, rec.Hi, s.fingerprint, pl.fingerprint)
	}
	if s.lo != rec.Lo || s.hi != rec.Hi || s.total != rec.Total || s.total != pl.total {
		return nil, fmt.Errorf("%w: journaled payload covers [%d, %d) of %d, record claims [%d, %d) of %d",
			journal.ErrCorrupt, s.lo, s.hi, s.total, rec.Lo, rec.Hi, rec.Total)
	}
	return p, nil
}

// rangeGaps returns the sub-ranges of [0, total) that the parts (already
// in ascending order, non-overlapping — the journal enforces both) do
// not cover, as explicit spans.
func rangeGaps(parts []partial, total int) ([]ShardSpec, error) {
	var gaps []ShardSpec
	next := 0
	for _, p := range parts {
		s := p.span()
		if s.lo < next {
			return nil, fmt.Errorf("%w: journaled ranges overlap at trial %d", journal.ErrCorrupt, s.lo)
		}
		if s.lo > next {
			gaps = append(gaps, SpanShard(next, s.lo))
		}
		next = s.hi
	}
	if next < total {
		gaps = append(gaps, SpanShard(next, total))
	}
	return gaps, nil
}

// Done reports how many trials the resume's coverage holds.
func (c *Resume) Done() int {
	done := 0
	for _, p := range c.parts {
		s := p.span()
		done += s.hi - s.lo
	}
	return done
}

// Spans cuts the resume's gaps into at most n explicit spans (at least
// one per gap), sized adaptively from the journal's observed per-trial
// cost: a trial in a region the journal measured as slow gets a smaller
// span, so interruptions near stragglers waste less completed work and
// the coordinator's lease scheduler sees evener span durations. The cut
// is deterministic — a pure function of the replayed records and the
// Spec — which is what makes a resumed plan reproducible: re-planning
// the same journal yields byte-identical spans at any worker count.
func (c *Resume) Spans(n int) []ShardSpec {
	covered := make([]planSpan, len(c.parts))
	for i, p := range c.parts {
		covered[i] = p.span()
	}
	return adaptiveSpans(n, c.Gaps, observedRates(covered, c.Total))
}

// Append journals one serialized partial of the plan — a fleet shard's
// payload — and adds it to the coverage.
func (c *Resume) Append(payload []byte) error {
	p, err := c.pl.decode(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	return c.add(p, payload)
}

// add journals one decoded partial with its serialized payload and adds
// it to the coverage.
func (c *Resume) add(p partial, payload []byte) error {
	if err := appendRecord(c.j, p, payload); err != nil {
		return err
	}
	c.parts = append(c.parts, p)
	return nil
}

// Snapshot aggregates the coverage over zero-valued stand-ins for the
// uncovered trials: the structurally complete progressive view.
func (c *Resume) Snapshot() Result { return c.pl.result(c.parts...) }

// Merge merges the coverage, which must tile the plan, into the final
// result (see MergeCampaign).
func (c *Resume) Merge() (Result, error) { return c.pl.merge(c.r, c.parts, "Merge") }

// Payloads returns the coverage's partials in their wire form
// (encoding/json, no trailing newline) with the trial span each covers,
// in the order they were replayed and appended: ascending trial order
// until the first Append.
func (c *Resume) Payloads() ([]ShardSpec, [][]byte, error) {
	spans := make([]ShardSpec, len(c.parts))
	out := make([][]byte, len(c.parts))
	for i, p := range c.parts {
		payload, err := json.Marshal(p)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: encoding journaled partial: %w", err)
		}
		s := p.span()
		spans[i], out[i] = SpanShard(s.lo, s.hi), payload
	}
	return spans, out, nil
}

// OpenJournal resolves the CLIs' -journal/-resume flag pair against the
// Spec: without resume it creates a fresh journal in dir (refusing, with
// journal.ErrExists, to clobber one already there); with resume it opens
// the existing journal (journal.ErrNoJournal when there is none) and
// verifies the Spec fingerprint matches (journal.ErrSpecMismatch — a
// journal resumes only the exact experiment that started it). The
// returned replay is nil for a fresh journal.
func OpenJournal(dir string, resume bool, spec Spec) (*journal.Journal, *journal.Replay, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, nil, err
	}
	fp, err := n.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	if resume {
		return journal.Open(dir, fp)
	}
	canon, err := n.Canonical()
	if err != nil {
		return nil, nil, err
	}
	j, err := journal.Create(dir, canon, fp)
	return j, nil, err
}

// AppendCampaignPayload journals one serialized campaign or concurrent
// partial without a plan to check it against: the payload's own
// fingerprint and range become the record envelope, so the journal's
// overlap guard sees the true trial span. coord.Run journals through
// Resume.Append, which decodes against the plan and serves every kind;
// this is the plan-free form the perfbench journal replay prices.
func AppendCampaignPayload(j *journal.Journal, payload []byte) (*PartialResult, error) {
	p, err := DecodePartial(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return p, appendRecord(j, p, payload)
}

// appendRecord journals one partial with its serialized payload.
func appendRecord(j *journal.Journal, p partial, payload []byte) error {
	s := p.span()
	return j.Append(journal.Record{
		PlanFP: s.fingerprint, Lo: s.lo, Hi: s.hi, Total: s.total,
		ElapsedMS: s.elapsedMS, Payload: payload,
	})
}

// rate is the span's observed cost in ms per trial; 0 = unknown.
func (s planSpan) rate() float64 {
	if s.elapsedMS > 0 && s.hi > s.lo {
		return float64(s.elapsedMS) / float64(s.hi-s.lo)
	}
	return 0
}

// observedRates builds the per-trial cost model over the whole plan:
// covered trials take their recording shard's mean rate; uncovered
// trials interpolate the nearest covered neighbors (mean of both sides,
// one side at the edges), falling back to the global mean, and to a
// uniform 1.0 when the journal holds no timing at all (a fresh journal:
// the adaptive cut then degrades to the uniform cut).
func observedRates(covered []planSpan, total int) []float64 {
	rates := make([]float64, total)
	sum, nRated := 0.0, 0
	for _, s := range covered {
		if r := s.rate(); r > 0 {
			sum += r * float64(s.hi-s.lo)
			nRated += s.hi - s.lo
		}
	}
	mean := 1.0
	if nRated > 0 {
		mean = sum / float64(nRated)
	}
	rate := func(s planSpan) float64 {
		if r := s.rate(); r > 0 {
			return r
		}
		return mean
	}
	for i := range rates {
		rates[i] = mean
	}
	for _, s := range covered {
		for i := s.lo; i < s.hi && i < total; i++ {
			rates[i] = rate(s)
		}
	}
	// Interpolate uncovered stretches from their covered neighbors.
	next := 0
	for si := 0; si <= len(covered); si++ {
		gapLo, gapHi := next, total
		var left, right *planSpan
		if si > 0 {
			left = &covered[si-1]
		}
		if si < len(covered) {
			right = &covered[si]
			gapHi = right.lo
			next = right.hi
		}
		if gapLo >= gapHi {
			continue
		}
		est := mean
		switch {
		case left != nil && right != nil:
			est = (rate(*left) + rate(*right)) / 2
		case left != nil:
			est = rate(*left)
		case right != nil:
			est = rate(*right)
		}
		for i := gapLo; i < gapHi && i < total; i++ {
			rates[i] = est
		}
	}
	return rates
}

// adaptiveSpans distributes n spans across the gaps proportionally to
// each gap's estimated cost (largest-remainder rounding, ties to the
// earlier gap; every gap gets at least one span and never more than its
// trial count), then cuts each gap at equal-cost boundaries, so costly
// regions end up in smaller spans.
func adaptiveSpans(n int, gaps []ShardSpec, rates []float64) []ShardSpec {
	if len(gaps) == 0 {
		return nil
	}
	if n < len(gaps) {
		n = len(gaps)
	}
	gapCost := make([]float64, len(gaps))
	totalCost := 0.0
	for gi, g := range gaps {
		for i := g.Lo; i < g.Hi; i++ {
			gapCost[gi] += rates[i]
		}
		totalCost += gapCost[gi]
	}
	// Proportional share, floored, then largest remainders take the rest.
	counts := make([]int, len(gaps))
	type rem struct {
		gi   int
		frac float64
	}
	var rems []rem
	assigned := 0
	for gi, g := range gaps {
		share := float64(n) / float64(len(gaps))
		if totalCost > 0 {
			share = float64(n) * gapCost[gi] / totalCost
		}
		counts[gi] = int(share)
		if counts[gi] < 1 {
			counts[gi] = 1
		}
		if max := g.Hi - g.Lo; counts[gi] > max {
			counts[gi] = max
		}
		assigned += counts[gi]
		rems = append(rems, rem{gi, share - float64(int(share))})
	}
	for assigned < n {
		best := -1
		for _, r := range rems {
			g := gaps[r.gi]
			if counts[r.gi] >= g.Hi-g.Lo {
				continue
			}
			if best < 0 || r.frac > rems[best].frac ||
				(r.frac == rems[best].frac && r.gi < rems[best].gi) {
				best = r.gi
			}
		}
		if best < 0 {
			break // every gap is at one span per trial
		}
		counts[best]++
		rems[best].frac = 0 // one extra each round, round-robin by remainder
		assigned++
	}
	var spans []ShardSpec
	for gi, g := range gaps {
		spans = append(spans, cutByCost(g, counts[gi], rates)...)
	}
	return spans
}

// cutByCost splits one gap into ng spans at equal-cost boundaries: the
// cumulative cost walks forward and each span closes once it holds its
// 1/ng share, while always leaving at least one trial per remaining
// span.
func cutByCost(g ShardSpec, ng int, rates []float64) []ShardSpec {
	trials := g.Hi - g.Lo
	if ng <= 1 || trials <= 1 {
		return []ShardSpec{g}
	}
	if ng > trials {
		ng = trials
	}
	total := 0.0
	for i := g.Lo; i < g.Hi; i++ {
		total += rates[i]
	}
	target := total / float64(ng)
	spans := make([]ShardSpec, 0, ng)
	lo := g.Lo
	acc := 0.0
	for i := g.Lo; i < g.Hi; i++ {
		acc += rates[i]
		remainingSpans := ng - len(spans) - 1
		remainingTrials := g.Hi - (i + 1)
		if remainingSpans > 0 && (acc >= target || remainingTrials <= remainingSpans) && i+1 > lo {
			spans = append(spans, SpanShard(lo, i+1))
			lo = i + 1
			acc = 0
		}
	}
	if lo < g.Hi {
		spans = append(spans, SpanShard(lo, g.Hi))
	}
	return spans
}

// RunJournaled executes the Spec's plan against a journal: replayed
// coverage is kept, the gaps run as adaptively cut spans, each span's
// partial is appended durably before the next starts, and the full set
// merges into a result byte-identical to an uninterrupted run. snap,
// when non-nil, receives the progressive Snapshot and the covered/total
// trial counts after replay and after every span. The int counts trials
// executed here; on cancellation the in-flight span's completed prefix
// is journaled before ctx's error returns.
func (r *Runner) RunJournaled(ctx context.Context, spec Spec, j *journal.Journal, prior *journal.Replay, spans int,
	snap func(res Result, done, total int)) (Result, int, error) {
	c, err := r.Resume(spec, j, prior)
	if err != nil {
		return Result{}, 0, err
	}
	return c.run(ctx, spans, snap)
}

// run is the journaled span loop behind RunJournaled.
func (c *Resume) run(ctx context.Context, spans int, snap func(res Result, done, total int)) (Result, int, error) {
	emit := func() {
		if snap != nil {
			snap(c.Snapshot(), c.Done(), c.Total)
		}
	}
	emit()
	executed := 0
	cut := c.Spans(spans)
	live := c.pl.lastUse(cut...)
	for _, span := range cut {
		if err := failpt.Err(siteSpan); err != nil {
			return Result{}, executed, err
		}
		p, err := c.pl.run(ctx, c.r, span, live)
		if err != nil && (p == nil || !cancelled(ctx, err)) {
			return Result{}, executed, err
		}
		if s := p.span(); s.hi > s.lo {
			payload, merr := json.Marshal(p)
			if merr != nil {
				return Result{}, executed, fmt.Errorf("harness: encoding journaled partial: %w", merr)
			}
			if aerr := c.add(p, payload); aerr != nil {
				return Result{}, executed, aerr
			}
			executed += s.hi - s.lo
			emit()
		}
		if err != nil {
			return Result{}, executed, err
		}
	}
	res, err := c.Merge()
	return res, executed, err
}

// --------------------------------------------------------------------------
// Journaled experiment generation with progressive reports.

// journalState holds the resume of every journaled sub-plan of an
// experiment, keyed by plan fingerprint — the state a progressive report
// renders from. The dedicated snapshot Runner keeps snapshot rendering
// from disturbing the live Runner's configuration (Options.Apply
// installs event sinks and policy on whichever Runner it is given).
type journalState struct {
	plans    map[string]*Resume
	executed int
	sr       *Runner
}

// snapshotOptions reroutes every sub-plan of a progressive report to its
// resume's snapshot without executing a single trial; a sub-plan no span
// has reached yet aggregates all-zero stand-ins, exactly the
// GenerateSharded trick.
func (st *journalState) snapshotOptions() Options {
	return Options{
		Runner: st.sr,
		reroute: func(_ context.Context, r *Runner, sub Spec) (Result, error) {
			pl, err := r.plan(sub, "", "GenerateJournaled")
			if err != nil {
				return Result{}, err
			}
			if c, ok := st.plans[pl.fingerprint]; ok {
				return c.Snapshot(), nil
			}
			return pl.result(), nil
		},
	}
}

// done reports covered/total trials across every sub-plan with coverage
// so far.
func (st *journalState) done() (done, total int) {
	for _, c := range st.plans {
		if d := c.Done(); d > 0 {
			done += d
			total += c.Total
		}
	}
	return done, total
}

// GenerateJournaled regenerates the experiment the Spec names with every
// campaign and overhead measurement inside it running through the
// journal: replayed coverage is skipped, gaps execute as adaptively cut
// spans, and each completed span lands in the journal before the next
// starts. The true report is rendered to out (byte-identical to an
// uninterrupted Generate). snap, when non-nil, fires after replay and
// after every completed span with a renderer that writes the current
// progressive report — paper-accurate partial numbers over zero-valued
// stand-ins for the trials still missing — plus covered/total counts.
// The returned int counts trials executed by this call.
func GenerateJournaled(ctx context.Context, spec Spec, j *journal.Journal, prior *journal.Replay, spans int,
	out io.Writer, opts Options, snap func(render func(io.Writer) error, done, total int)) (int, error) {
	n, err := spec.normalizedAs(SpecExperiment, "GenerateJournaled")
	if err != nil {
		return 0, err
	}
	st := &journalState{plans: make(map[string]*Resume), sr: NewRunner()}
	var emit func(Result, int, int)
	if snap != nil {
		emit = func(Result, int, int) {
			done, total := st.done()
			snap(func(w io.Writer) error { return Generate(ctx, n, w, st.snapshotOptions()) }, done, total)
		}
	}
	opts.reroute = func(ctx context.Context, r *Runner, sub Spec) (Result, error) {
		c, err := r.Resume(sub, j, prior)
		if err != nil {
			return Result{}, err
		}
		st.plans[c.PlanFP] = c
		res, executed, err := c.run(ctx, spans, emit)
		st.executed += executed
		return res, err
	}
	if err := Generate(ctx, n, out, opts); err != nil {
		return st.executed, err
	}
	return st.executed, nil
}
