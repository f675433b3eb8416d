package harness_test

import (
	"bytes"
	"context"
	"fmt"

	"dpmr/internal/dpmr"
	"dpmr/internal/faultinject"
	"dpmr/internal/harness"
	"dpmr/internal/workloads"
)

// ExampleSpec shows the declarative round trip behind the CLIs' -spec
// flag: the Spec a CLI assembles from flags encodes to canonical JSON
// (the -spec file format), decodes back, and keeps its fingerprint —
// the identity plan fingerprints embed, so a flag-driven run, a -spec
// file run, and a coordinator assignment all name the same experiment.
func ExampleSpec() {
	spec := harness.CampaignSpec(
		faultinject.ImmediateFree,
		workloads.All()[:1],
		[]harness.Variant{
			harness.Stdapp(),
			harness.NewVariant(dpmr.SDS, dpmr.RearrangeHeap{}, dpmr.AllLoads{}),
		},
	)
	spec.MaxSites = 2

	var file bytes.Buffer
	if err := spec.Encode(&file); err != nil { // flags → Spec → JSON
		fmt.Println(err)
		return
	}
	decoded, err := harness.DecodeSpec(&file) // JSON → Spec
	if err != nil {
		fmt.Println(err)
		return
	}
	fp1, _ := spec.Fingerprint()
	fp2, _ := decoded.Fingerprint()
	fmt.Println("kind:", decoded.Kind)
	fmt.Println("runs default applied:", decoded.Runs)
	fmt.Println("fingerprint unchanged:", fp1 == fp2)
	// Output:
	// kind: campaign
	// runs default applied: 2
	// fingerprint unchanged: true
}

// ExampleStart consumes a Session's typed event stream: TrialDone and
// Progress arrive per completed trial, a final CacheStats snapshot
// closes the stream, and Wait returns the aggregated result. Cancelling
// the context instead would drain in-flight trials and return the
// completed-prefix partial with ctx.Err().
func ExampleStart() {
	spec := harness.CampaignSpec(
		faultinject.ImmediateFree,
		workloads.All()[:1],
		[]harness.Variant{harness.Stdapp()},
	)
	spec.Runs = 1
	spec.MaxSites = 1

	s, err := harness.Start(context.Background(), spec, nil, harness.Options{Parallel: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	var last harness.TrialDone
	for ev := range s.Events() { // closed when the session finishes
		if td, ok := ev.(harness.TrialDone); ok {
			last = td
		}
	}
	res, err := s.Wait()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("trials: %d of %d\n", last.Done, last.Total)
	fmt.Println("aggregated:", res.Campaign() != nil)
	fmt.Println("modules built:", res.Stats.Builds > 0)
	// Output:
	// trials: 1 of 1
	// aggregated: true
	// modules built: true
}
