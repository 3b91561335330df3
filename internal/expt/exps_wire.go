package expt

import (
	"fmt"

	"spardl/internal/sparse"
	"spardl/internal/train"
	"spardl/internal/wire"
)

func init() {
	register(&Experiment{
		ID:    "ext-wire",
		Title: "Extension: wire encodings for sparse messages",
		Paper: "The paper (and this repository's α-β accounting) charges the COO format: 2 wire elements per entry. This extension measures how much a format-negotiating codec (COO / delta-varint / bitmap) would save on SparDL's actual messages across sparsity ratios.",
		Run: func(q Quality) []*Table {
			c := train.CaseByID(2) // VGG-19/CIFAR-100, the Fig. 8/18 headline case
			g := modelGrad(c, 3, 0, 0)
			n := len(g)
			tab := &Table{
				Title:   fmt.Sprintf("Encoded size of a top-k block message (bytes; %s's gradient, n=%d)", c.Name, n),
				Columns: []string{"k/n", "entries", "COO", "negotiated", "format", "saving"},
				Notes: []string{
					"delta encoding wins at every realistic sparsity because sorted indices have small gaps",
					"bitmap would win only above ~3% density, beyond the useful top-k regime",
				},
			}
			for _, ratio := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
				k := int(ratio * float64(n))
				chunk := sparse.TopKDense(g, 0, n, k)
				coo := wire.COOBytes(chunk.Len(), 0, int32(n))
				buf, format := wire.Encode(chunk, 0, int32(n))
				tab.AddRow(fmt.Sprintf("%.0e", ratio), chunk.Len(), coo, len(buf), format.String(),
					fmt.Sprintf("%.0f%%", 100*(1-float64(len(buf))/float64(coo))))
			}
			return []*Table{tab}
		},
	})
}
