package experiments

import "testing"

func TestECSRoutingAccuracy(t *testing.T) {
	res, err := ECSRouting(42)
	if err != nil {
		t.Fatal(err)
	}
	// With ECS every client's /24 matches its table row: perfect
	// selection, scoped /24.
	if res.WithECS != 1.0 {
		t.Errorf("with ECS accuracy = %.2f, want 1.0", res.WithECS)
	}
	if res.ScopeWithECS != 24 {
		t.Errorf("mean scope = %.1f, want 24", res.ScopeWithECS)
	}
	// Without ECS the C-DNS sees only the resolver's subnet and sends
	// everyone to the resolver's PoP (PoP 0): only the clients that
	// happen to map there are served correctly.
	if want := 6.0 / 24.0; res.WithoutECS != want {
		t.Errorf("without ECS accuracy = %.2f, want %.2f", res.WithoutECS, want)
	}
	if res.RouteRows != 25 {
		t.Errorf("route rows = %d, want 25", res.RouteRows)
	}
}
