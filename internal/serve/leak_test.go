package serve

import (
	"os"
	"testing"

	"ibox/internal/leakcheck"
)

// TestMain fails the package if any serving goroutine outlives the
// tests — a replay job stuck on the pool, an admission-gated request
// never released, or a pool worker Shutdown failed to reap.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m, "ibox/internal/serve", "ibox/internal/session", "ibox/internal/par"))
}
