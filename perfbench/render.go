package main

import (
	"fmt"
	"io"

	"dpmr/internal/harness"
)

// renderCampaign writes every cell of a campaign result, conditional
// coverage included, at full precision, so two results render alike
// exactly when they are equal.
func renderCampaign(w io.Writer, cr *harness.CampaignResult) {
	fmt.Fprintf(w, "campaign %s\n", cr.Kind)
	for _, v := range cr.Variants {
		for _, name := range cr.Workloads {
			c := cr.Cell(v, name)
			fmt.Fprintf(w, "%s %s n=%d CO=%.6f NatDet=%.6f DpmrDet=%.6f t2d_ms=%.6f\n",
				v.Label(), name, c.N, c.CO, c.NatDet, c.DpmrDet, c.MeanT2DMS)
		}
		c := cr.Conditional[v.Label()]
		fmt.Fprintf(w, "%s conditional n=%d CO=%.6f NatDet=%.6f DpmrDet=%.6f\n",
			v.Label(), c.N, c.CO, c.NatDet, c.DpmrDet)
	}
}

// renderOverhead writes every ratio and cycle count of an overhead result.
func renderOverhead(w io.Writer, or *harness.OverheadResult) {
	fmt.Fprintln(w, "overhead")
	for _, v := range or.Variants {
		for _, name := range or.Workloads {
			fmt.Fprintf(w, "%s %s x%.6f cycles=%d\n", v.Label(), name, or.Ratio[v.Label()][name], or.Cycles[v.Label()][name])
		}
	}
}
