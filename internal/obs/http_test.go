package obs

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
)

// TestServeOpsBindsBeforeReturning pins the deterministic bind: the address
// is bound by the time ServeOps returns — port 0 resolves to a real port
// that already answers — and an occupied address is an error from ServeOps
// itself, not a goroutine's silent exit.
func TestServeOpsBindsBeforeReturning(t *testing.T) {
	reg := NewRegistry()
	RegisterGoRuntime(reg)
	addr, stop, err := ServeOps("127.0.0.1:0", reg, func() any { return map[string]int{"ok": 1} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if addr.(*net.TCPAddr).Port == 0 {
		t.Fatalf("bound address %s still has port 0", addr)
	}
	for path, want := range map[string]string{"/metrics": "gsalert_go_goroutines", "/stats": `"ok": 1`} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s lacks %q:\n%s", path, want, body)
		}
	}

	// The port is taken now: a second server on it must fail at once.
	if _, _, err := ServeOps(addr.String(), reg, nil, nil); err == nil {
		t.Fatal("ServeOps on an occupied address returned no error")
	}
}
