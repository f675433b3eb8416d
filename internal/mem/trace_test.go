package mem

import "testing"

// TestDigestCoversEveryField: changing any one field of any one event of
// a replayed stream — its thread, sequence number, kind, address, width
// or value — changes the recorder's digest, while an identical stream
// reproduces it.
func TestDigestCoversEveryField(t *testing.T) {
	type event struct {
		tid int
		e   TraceEvent
	}
	base := []event{
		{0, TraceEvent{Seq: 0, Op: TraceStore, Addr: 0x100, Width: 8, Val: 1}},
		{1, TraceEvent{Seq: 1, Op: TraceLoad, Addr: 0x100, Width: 8, Val: 1}},
		{1, TraceEvent{Seq: 2, Op: TraceStore, Addr: 0x108, Width: 4, Val: 7}},
		{0, TraceEvent{Seq: 3, Op: TraceLoad, Addr: 0x108, Width: 4, Val: 7}},
	}
	digest := func(evs []event) uint64 {
		t.Helper()
		rec := NewTraceRec(2, 0)
		for _, ev := range evs {
			rec.Replay(ev.tid, ev.e)
		}
		if rec.Len() != uint64(len(evs)) {
			t.Fatalf("replayed %d events, recorder kept %d", len(evs), rec.Len())
		}
		return rec.Digest()
	}
	want := digest(base)
	if got := digest(append([]event(nil), base...)); got != want {
		t.Fatalf("identical streams digest to %#x and %#x", got, want)
	}
	mutations := map[string]func(*event){
		"thread": func(ev *event) { ev.tid ^= 1 },
		"seq":    func(ev *event) { ev.e.Seq += 10 },
		"op":     func(ev *event) { ev.e.Op = TraceLoad + TraceStore - ev.e.Op },
		"addr":   func(ev *event) { ev.e.Addr += 8 },
		"width":  func(ev *event) { ev.e.Width = 2 },
		"value":  func(ev *event) { ev.e.Val ^= 1 << 40 },
	}
	for i := range base {
		for field, mutate := range mutations {
			evs := append([]event(nil), base...)
			mutate(&evs[i])
			if got := digest(evs); got == want {
				t.Errorf("event %d: changing its %s left the digest at %#x", i, field, got)
			}
		}
	}
}
