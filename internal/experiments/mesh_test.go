package experiments

import "testing"

func TestMeshExperiment(t *testing.T) {
	res, err := Mesh(MeshConfig{Seed: 42, RequestsPerTick: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arms) != 2 {
		t.Fatalf("arms = %d", len(res.Arms))
	}
	var meshArm, vert MeshArm
	for _, a := range res.Arms {
		if a.Mode == "mesh" {
			meshArm = a
		} else {
			vert = a
		}
	}
	// The headline claim: with the mesh, at least half the hot site's
	// misses are served by a sibling MEC instead of the parent tier.
	if meshArm.SiblingShare < 0.5 {
		t.Errorf("mesh sibling share = %.2f, want >= 0.5\n%s", meshArm.SiblingShare, res.Render())
	}
	if meshArm.SiblingHits == 0 {
		t.Error("mesh arm steered nothing")
	}
	// The vertical arm cannot reach a sibling at all.
	if vert.SiblingHits+vert.SiblingFills != 0 {
		t.Errorf("vertical arm reached siblings: %+v", vert)
	}
	if vert.ParentFills == 0 {
		t.Error("vertical arm never filled from the parent")
	}
	if r := res.Render(); r == "" {
		t.Error("empty render")
	}
}
