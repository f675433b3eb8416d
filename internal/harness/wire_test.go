package harness

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestEventWireRoundTrip: every event type a Session emits survives the
// wire encoding exactly — including duration stamps, which the adaptive
// shard sizing downstream consumes.
func TestEventWireRoundTrip(t *testing.T) {
	events := []Event{
		TrialDone{Done: 3, Total: 40, Elapsed: 1500 * time.Microsecond},
		Progress{Done: 7, Total: 40, Stats: CacheStats{Builds: 4, Evicted: 1, Resident: 3, Peak: 4}},
		ShardMerged{Shard: ShardSpec{Index: 1, Count: 3}, Lo: 13, Hi: 26, Total: 40, Elapsed: 2 * time.Millisecond},
		ShardMerged{Shard: SpanShard(5, 9), Lo: 5, Hi: 9, Total: 40},
		CacheStats{Builds: 12, Evicted: 12, Resident: 0, Peak: 3},
	}
	for _, ev := range events {
		data, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("EncodeEvent(%#v): %v", ev, err)
		}
		got, err := DecodeEvent(data)
		if err != nil {
			t.Fatalf("DecodeEvent(%s): %v", data, err)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("round trip changed the event:\n sent %#v\n got  %#v", ev, got)
		}
	}
}

// TestEventWireRejectsMalformed: frames carrying zero or several event
// variants, or an unknown Event implementation, error by name instead of
// decoding to something misleading.
func TestEventWireRejectsMalformed(t *testing.T) {
	if _, err := DecodeEvent([]byte(`{}`)); err == nil {
		t.Error("empty event frame decoded without error")
	}
	if _, err := DecodeEvent([]byte(`{"trialDone":{},"progress":{}}`)); err == nil {
		t.Error("double-tagged event frame decoded without error")
	}
	if _, err := DecodeEvent([]byte(`not json`)); err == nil {
		t.Error("non-JSON event frame decoded without error")
	}
	type rogue struct{ Event }
	if _, err := EncodeEvent(rogue{}); err == nil {
		t.Error("unknown event type encoded without error")
	}
}

// TestMergedEventSumsEverySubPlan: an experiment partial's ShardMerged
// range sums every sub-plan list, and every list field of
// ExperimentPartial is such a list — so the lenient envelope can read
// them all without naming them.
func TestMergedEventSumsEverySubPlan(t *testing.T) {
	partialType := reflect.TypeOf((*partial)(nil)).Elem()
	ept := reflect.TypeOf(ExperimentPartial{})
	lists := 0
	for i := 0; i < ept.NumField(); i++ {
		if f := ept.Field(i); f.Type.Kind() == reflect.Slice {
			if !f.Type.Elem().Implements(partialType) {
				t.Errorf("ExperimentPartial.%s is a list of %s, not of a sub-plan partial", f.Name, f.Type.Elem())
			}
			lists++
		}
	}
	if n := len((&ExperimentPartial{}).subPlans()); lists != n {
		t.Errorf("ExperimentPartial has %d list fields for %d sub-plan kinds", lists, n)
	}

	ep := &ExperimentPartial{Exp: "x", Shard: SpanShard(0, 9),
		Campaigns: []*PartialResult{{Lo: 1, Hi: 3, Total: 5, ElapsedMS: 2}},
		Overheads: []*OverheadPartial{{Lo: 4, Hi: 6, Total: 8, ElapsedMS: 3}},
	}
	payload, err := json.Marshal(ep)
	if err != nil {
		t.Fatal(err)
	}
	want := ShardMerged{Shard: ep.Shard, Lo: 5, Hi: 9, Total: 13, Elapsed: 5 * time.Millisecond}
	if got := MergedEvent(ep.Shard, payload); got != want {
		t.Errorf("MergedEvent = %+v, want %+v", got, want)
	}
	if got := MergedEvent(ep.Shard, []byte("not a partial")); got != (ShardMerged{Shard: ep.Shard}) {
		t.Errorf("MergedEvent of a non-partial = %+v, want an empty range", got)
	}
}
