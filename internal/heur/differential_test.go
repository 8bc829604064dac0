package heur

// Differential pinning of the PR and XYI hot loops against their
// straightforward references (refheur_test.go): identical routings, path
// for path, across seeded uniform instances from lightly loaded to fully
// overloaded. The production heuristics run on one shared workspace, so
// pooled state carried between instances and mesh sizes is covered too.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mesh"
	"repro/internal/power"
	"repro/internal/route"
	"repro/internal/workload"
)

// diffInstances returns the 200-instance seeded matrix: 4x4, 8x8 and
// 16x16 meshes, n from 5 to 140 — on 4x4 the upper end overloads nearly
// every link, the regime where XYI's excess deltas tie. The large mesh
// gets fewer seeds per point: its reference runs dominate the cost.
func diffInstances() []Instance {
	model := power.KimHorowitz()
	var out []Instance
	for _, size := range []struct{ side, seeds int }{{4, 12}, {8, 9}, {16, 4}} {
		side := size.side
		m := mesh.MustNew(side, side)
		for _, n := range []int{5, 12, 20, 35, 50, 70, 100, 140} {
			for seed := int64(0); seed < int64(size.seeds); seed++ {
				g := workload.New(m, seed*1000+int64(side*200+n))
				out = append(out, Instance{Mesh: m, Model: model, Comms: g.Uniform(n, 100, 1500)})
			}
		}
	}
	return out
}

func samePaths(t *testing.T, label string, got, want route.Routing) {
	t.Helper()
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("%s: %d flows, reference has %d", label, len(got.Flows), len(want.Flows))
	}
	for i, f := range got.Flows {
		w := want.Flows[i]
		if f.Comm != w.Comm || !slices.Equal(f.Path, w.Path) {
			t.Fatalf("%s: flow %d (comm %d) routed %v, reference %v", label, i, f.Comm.ID, f.Path, w.Path)
		}
	}
}

func TestPRMatchesReference(t *testing.T) {
	for _, static := range []bool{false, true} {
		h := PR{StaticShares: static}
		ws := route.NewWorkspace()
		for k, in := range diffInstances() {
			got, err := h.RouteInto(in, ws)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("PR{StaticShares:%v} instance %d (%dx%d, n=%d)",
				static, k, in.Mesh.P(), in.Mesh.Q(), len(in.Comms))
			samePaths(t, label, got, refPR(in, static))
		}
	}
}

func TestXYIMatchesReference(t *testing.T) {
	ws := route.NewWorkspace()
	for k, in := range diffInstances() {
		got, err := (XYI{}).RouteInto(in, ws)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("XYI instance %d (%dx%d, n=%d)", k, in.Mesh.P(), in.Mesh.Q(), len(in.Comms))
		samePaths(t, label, got, refXYI(in))
	}
}
