package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/journal"
	"dpmr/internal/workloads"
)

// The wire and journal bytes each plan kind writes, pinned: one partial
// per kind (a journaled span with a fixed elapsed stamp), the journal
// file a journaled run leaves after appending that span, and an
// experiment shard file. Resume and merge read files and payloads that
// other builds wrote, so a change to any of these bytes breaks them; the
// test compares byte for byte.
const (
	pinCampaignPartial = `{"fingerprint":"f46a227c9e1b062157ba86f30faa619c045680520ddd9b9fbe8450d6fa172ce0","shard":{"index":0,"count":0,"hi":2},"lo":0,"hi":2,"total":4,"outcomes":[{"sf":true,"natDet":true,"t2dCycles":2480637},{"sf":true,"natDet":true,"t2dCycles":4136941}],"elapsedMS":17}` + "\n"
	pinCampaignJournal = `{"v":1,"kind":"header","spec":{"kind":"campaign","workloads":["art"],"variants":[{},{"dpmr":true,"design":"sds","diversity":"no-diversity","policy":"all loads"}],"inject":"immediate-free","runs":1,"maxSites":2,"timeoutFactor":20,"mem":{"GlobalBytes":65536,"HeapBytes":4194304,"StackBytes":262144,"DisableCache":false}},"specFP":"3ca72cdd2bd765c57deeffc95e7fc7ac0688e9779d39d685c0e30493774dfb7a"}` + "\n" +
		`{"v":1,"kind":"shard","planFP":"f46a227c9e1b062157ba86f30faa619c045680520ddd9b9fbe8450d6fa172ce0","hi":2,"total":4,"elapsedMS":17,"payload":{"fingerprint":"f46a227c9e1b062157ba86f30faa619c045680520ddd9b9fbe8450d6fa172ce0","shard":{"index":0,"count":0,"hi":2},"lo":0,"hi":2,"total":4,"outcomes":[{"sf":true,"natDet":true,"t2dCycles":2480637},{"sf":true,"natDet":true,"t2dCycles":4136941}],"elapsedMS":17},"sum":"1ab829cfe06d6571bfa9a9149a9b023e45cb498da8be4d2fbec08fc74d38b4f8"}` + "\n"
	pinOverheadPartial = `{"fingerprint":"1ca84d41e37d763e98a61ed37c57dc4bdc8ff6649b172acaf4f5723493b8aee5","shard":{"index":0,"count":0,"hi":1},"lo":0,"hi":1,"total":2,"cycles":[2480737],"elapsedMS":23}` + "\n"
	pinOverheadJournal = `{"v":1,"kind":"header","spec":{"kind":"overhead","workloads":["art"],"variants":[{},{"dpmr":true,"design":"sds","diversity":"no-diversity","policy":"all loads"}],"timeoutFactor":20,"mem":{"GlobalBytes":65536,"HeapBytes":4194304,"StackBytes":262144,"DisableCache":false}},"specFP":"7b3b02b1be23577967eb2407ff2d341fa86325a5b532eec36657639831dfdbbc"}` + "\n" +
		`{"v":1,"kind":"shard","planFP":"1ca84d41e37d763e98a61ed37c57dc4bdc8ff6649b172acaf4f5723493b8aee5","hi":1,"total":2,"elapsedMS":23,"payload":{"fingerprint":"1ca84d41e37d763e98a61ed37c57dc4bdc8ff6649b172acaf4f5723493b8aee5","shard":{"index":0,"count":0,"hi":1},"lo":0,"hi":1,"total":2,"cycles":[2480737],"elapsedMS":23},"sum":"454c5f5e8c42bca40aec28d0876156dec1da0f98960c283ba5c70900b5c7e789"}` + "\n"
	pinConcurrentPartial = `{"fingerprint":"fccc72c45ca74f1e8870338991db80db39fedce3f6f6fb12a578e074bb22b051","shard":{"index":0,"count":0,"hi":1},"lo":0,"hi":1,"total":2,"outcomes":[{"co":true}],"elapsedMS":31}` + "\n"
	pinConcurrentJournal = `{"v":1,"kind":"header","spec":{"kind":"concurrent","workloads":["chash"],"variants":[{}],"runs":2,"threads":3,"schedSeed":1,"timeoutFactor":20,"mem":{"GlobalBytes":65536,"HeapBytes":4194304,"StackBytes":262144,"DisableCache":false}},"specFP":"25d698b4c266291847e68cf8d5dbea5c8ec065df9757af7f828e2e8bfd4ccb66"}` + "\n" +
		`{"v":1,"kind":"shard","planFP":"fccc72c45ca74f1e8870338991db80db39fedce3f6f6fb12a578e074bb22b051","hi":1,"total":2,"elapsedMS":31,"payload":{"fingerprint":"fccc72c45ca74f1e8870338991db80db39fedce3f6f6fb12a578e074bb22b051","shard":{"index":0,"count":0,"hi":1},"lo":0,"hi":1,"total":2,"outcomes":[{"co":true}],"elapsedMS":31},"sum":"0c1c48f975385feb57c47d138fd658df83e951d6f69e78c95f0276e27877b20d"}` + "\n"
	pinExperimentPartial = `{"exp":"fig3.16","shard":{"index":0,"count":1},"overheads":[{"fingerprint":"a58eceb489990c0af0d1036c8a22856b2d73995dfae671c21408670bc6076d7d","shard":{"index":0,"count":1},"lo":0,"hi":8,"total":8,"cycles":[2480737,4080475,9535901,6646145,884698,1391526,2654791,1986002],"elapsedMS":5}]}` + "\n"
)

// pinSpecs are the Specs the pinned bytes were cut from.
func pinSpecs() (campaign, overhead, concurrent Spec) {
	vs := []Variant{Stdapp(), NewVariant(dpmr.SDS, dpmr.NoDiversity{}, dpmr.AllLoads{})}
	campaign = CampaignSpec(faultinject.ImmediateFree, workloads.All()[:1], vs)
	campaign.Runs = 1
	campaign.MaxSites = 2
	overhead = OverheadSpec(workloads.All()[:1], vs)
	concurrent = ConcurrentSpec([]string{"chash"}, []Variant{Stdapp()})
	return campaign, overhead, concurrent
}

// TestWireBytesPinned holds every kind's encoders to the pinned bytes —
// the partial a shard file or fleet payload carries, and the journal
// record both the in-process span loop and the coordinator's
// Resume.Append write — and then resumes a journal holding the pinned
// record: the resume re-runs only the trials it leaves uncovered and
// merges a result identical to a direct run.
func TestWireBytesPinned(t *testing.T) {
	ctx := context.Background()
	campaign, overhead, concurrent := pinSpecs()
	cases := []struct {
		name             string
		spec             Spec
		partial, journal string
	}{
		{"campaign", campaign, pinCampaignPartial, pinCampaignJournal},
		{"overhead", overhead, pinOverheadPartial, pinOverheadJournal},
		{"concurrent", concurrent, pinConcurrentPartial, pinConcurrentJournal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := NewRunner().plan(tc.spec, "", "pin")
			if err != nil {
				t.Fatal(err)
			}
			p, err := pl.decode(strings.NewReader(tc.partial))
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if err := p.(interface{ Encode(io.Writer) error }).Encode(&enc); err != nil {
				t.Fatal(err)
			}
			if enc.String() != tc.partial {
				t.Errorf("partial encoding changed:\n got %s\nwant %s", enc.String(), tc.partial)
			}

			// The in-process span loop's record, and the coordinator's.
			payload, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			j, dir := openPinJournal(t, tc.spec)
			if err := appendRecord(j, p, payload); err != nil {
				t.Fatal(err)
			}
			checkPinJournal(t, j, dir, tc.journal)
			j, dir = openPinJournal(t, tc.spec)
			c, err := NewRunner().Resume(tc.spec, j, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Append([]byte(tc.partial)); err != nil {
				t.Fatal(err)
			}
			checkPinJournal(t, j, dir, tc.journal)

			// Resume a journal holding the pinned record.
			dir = t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journal.FileName), []byte(tc.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			fp, err := tc.spec.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			j, rp, err := journal.Open(dir, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			got, executed, err := NewRunner().RunJournaled(ctx, tc.spec, j, rp, DefaultResumeSpans, nil)
			if err != nil {
				t.Fatal(err)
			}
			s := p.span()
			if executed != pl.total-(s.hi-s.lo) {
				t.Errorf("resume executed %d trials, want the %d the pinned record leaves", executed, pl.total-(s.hi-s.lo))
			}
			direct, err := NewRunner().runWhole(ctx, tc.spec, "", "pin")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, got) {
				t.Error("resume over the pinned record differs from a direct run")
			}
		})
	}

	t.Run("experiment", func(t *testing.T) {
		ep, err := DecodeExperimentPartial(strings.NewReader(pinExperimentPartial))
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if err := encodePartial(&enc, ep); err != nil {
			t.Fatal(err)
		}
		if enc.String() != pinExperimentPartial {
			t.Errorf("experiment partial encoding changed:\n got %s\nwant %s", enc.String(), pinExperimentPartial)
		}
		var direct, merged bytes.Buffer
		if err := Generate(ctx, quickExp("fig3.16"), &direct, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := GenerateMerged(ctx, quickExp("fig3.16"), &merged, []io.Reader{strings.NewReader(pinExperimentPartial)}, Options{}); err != nil {
			t.Fatal(err)
		}
		if merged.String() != direct.String() {
			t.Errorf("pinned experiment partial merges to a different report:\n--- direct ---\n%s--- merged ---\n%s", direct.String(), merged.String())
		}
	})
}

// openPinJournal creates a fresh journal for spec.
func openPinJournal(t *testing.T, spec Spec) (*journal.Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, _, err := OpenJournal(dir, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	return j, dir
}

// checkPinJournal closes j and compares its file to the pinned bytes.
func checkPinJournal(t *testing.T, j *journal.Journal, dir, want string) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, journal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("journal bytes changed:\n got %s\nwant %s", got, want)
	}
}
