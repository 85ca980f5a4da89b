package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzReplicaAnnounce feeds arbitrary bytes to POST /v1/replicas on a
// router with an empty fleet. It must never panic. A body it accepts is
// exactly one JSON value and registers exactly one replica, with a name
// and a base URL that passes CheckBaseURL; a body it rejects leaves the
// ring and the fleet empty.
func FuzzReplicaAnnounce(f *testing.F) {
	for _, body := range []string{
		`{"name":"a","base_url":"http://127.0.0.1:1"} trailing`,
		`{"name":"b","base_url":"http://"}`,
		`{"name":"c","base_url":"http:// bad host"}`,
		`{"name":"d","base_url":"http://127.0.0.1:1"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rt := NewRouter(RouterOptions{HealthInterval: time.Hour})
		defer rt.Close()
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/replicas", bytes.NewReader(body)))
		nodes := rt.ReadyReplicas()
		if w.Code != http.StatusOK {
			rt.mu.Lock()
			fleet := len(rt.replicas)
			rt.mu.Unlock()
			if len(nodes) != 0 || fleet != 0 {
				t.Fatalf("rejected body %q (%d) changed the fleet: ring %v, %d members", body, w.Code, nodes, fleet)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted body %q is not exactly one JSON value", body)
		}
		if len(nodes) != 1 {
			t.Fatalf("accepted body %q left a ring of %d, want 1", body, len(nodes))
		}
		rep, _ := rt.lookup(nodes[0])
		if rep.name == "" {
			t.Fatalf("accepted body %q registered a replica without a name", body)
		}
		if err := CheckBaseURL(rep.baseURL); err != nil {
			t.Fatalf("accepted body %q registered a bad base URL: %v", body, err)
		}
	})
}
