package scenario

import (
	"bytes"
	"testing"

	"vpsec/internal/core"
	"vpsec/internal/defense"
)

// slowdownCells is a synthetic three-group matrix for the
// security-vs-slowdown summary: the Fill Up group had no baseline, so
// none of its cells is priced, and R(9) is priced in no group.
func slowdownCells() []defense.MatrixCell {
	return []defense.MatrixCell{
		{Category: core.TrainTest, Channel: core.TimingWindow, Strategy: "none", P: 0.0001, MeanCyc: 1000, Slowdown: 1},
		{Category: core.TrainTest, Channel: core.TimingWindow, Strategy: "A", P: 0.3, Defended: true, MeanCyc: 1500, Slowdown: 1.5},
		{Category: core.TrainTest, Channel: core.TimingWindow, Strategy: "R(9)", P: 0.02, MeanCyc: 1100},
		{Category: core.TestHit, Channel: core.Persistent, Strategy: "none", P: 0.0003, MeanCyc: 800, Slowdown: 1},
		{Category: core.TestHit, Channel: core.Persistent, Strategy: "A", P: 0.6, Defended: true, MeanCyc: 1040, Slowdown: 1.3},
		{Category: core.TestHit, Channel: core.Persistent, Strategy: "R(9)", P: 0.4, Defended: true, MeanCyc: 900},
		{Category: core.FillUp, Channel: core.TimingWindow, Strategy: "none", P: 0.01},
		{Category: core.FillUp, Channel: core.TimingWindow, Strategy: "A", P: 0.04},
		{Category: core.FillUp, Channel: core.TimingWindow, Strategy: "R(9)", P: 0.7, Defended: true},
	}
}

// TestRenderDefenseMatrixSlowdown pins the defense-matrix render with
// the security-vs-slowdown summary on synthetic cells: per strategy, in
// first-seen order, the cells it defends and its mean slowdown over the
// cells that had a baseline.
func TestRenderDefenseMatrixSlowdown(t *testing.T) {
	r := &Result{Spec: Spec{Kind: KindDefenseMatrix, Slowdown: true}, Matrix: slowdownCells()}
	var b bytes.Buffer
	if err := r.Render(&b, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	const want = `Defense matrix (p-values; 'def' = attack prevented):

Train + Test / timing-window:
  none       p=0.0001  LEAKS x1.00
  A          p=0.3000  def   x1.50
  R(9)       p=0.0200  LEAKS

Test + Hit / persistent:
  none       p=0.0003  LEAKS x1.00
  A          p=0.6000  def   x1.30
  R(9)       p=0.4000  def

Fill Up / timing-window:
  none       p=0.0100  LEAKS
  A          p=0.0400  LEAKS
  R(9)       p=0.7000  def

Security vs slowdown (per strategy, over all cells):
  strategy      defended  slowdown
  none             0/3       x1.00
  A                2/3       x1.40
  R(9)             2/3           —

WARNING: combined A+R+D left an attack effective.
`
	if got := b.String(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
}
