package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// decodeBody runs body through the submit handlers' decoder.
func decodeBody(body []byte) (JobRequest, string, error) {
	return DecodeJobRequest(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
}

// jobRequestSeeds are FuzzJobRequest's inline seeds, in seed#N order.
var jobRequestSeeds = []string{
	``,
	`{}`,
	`{"config":"hetero","model":"AlexNet"}`,
	`{"config":"HETERO","model":"vgg-19","freq_scale":2}`,
	`{"config":"hetero","model":"AlexNet","variant":{"recursive_kernels":true}}`,
	`{"config":"hetero","model":"ResNet-50","processors":4}`,
	`{"config":"fixed","model":"DCGAN","batch_size":32,"stacks":2,"allreduce":"tree"}`,
	`{"config":"cpu","model":"AlexNet","instrument":true}`,
	`{"config":"gpu","model":"LSTM","freq_scale":-0}`,
	`{"config":"progr","model":"Word2vec","freq_scale":5e-324,"stacks":0}`,
	`{"config":"hetero","model":"AlexNet","unknown":1}`,
	`{"config":"hetero","model":"AlexNet"} trailing`,
	`{"config":"hetero","model":"AlexNet","batch_size":65536}`,
	`{"config":"hetero","model":"AlexNet","batch_size":65537}`,
	`{"config":"hetero","model":"VGG-19","batch_size":64,"stacks":64}`,
	`{"config":"hetero","model":"VGG-19","stacks":65}`,
	`{"config":"hetero","model":"ResNet-50","processors":256}`,
	`{"config":"hetero","model":"ResNet-50","processors":257}`,
}

// JobRequestSeeds returns every FuzzJobRequest seed by name: the inline
// ones as seed#N, then the committed corpus files. The router parity
// test in package serve_test sends each one through both tiers.
func JobRequestSeeds(t testing.TB) (names []string, bodies [][]byte) {
	t.Helper()
	for i, s := range jobRequestSeeds {
		names = append(names, "seed#"+strconv.Itoa(i))
		bodies = append(bodies, []byte(s))
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzJobRequest")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// The corpus format: a version line, then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if len(lines) != 2 || !ok || err != nil {
			t.Fatalf("corpus file %s: not a single []byte value", e.Name())
		}
		names = append(names, e.Name())
		bodies = append(bodies, []byte(body))
	}
	return names, bodies
}

// FuzzJobRequest feeds arbitrary bytes to the POST /v1/jobs decoder. It
// must never panic, and a body it accepts must name the same job after
// its request is re-encoded and decoded again: the job id is the
// cluster's shard key, so a client or router that re-serializes a
// request has to land on the same job. The committed corpus under
// testdata/fuzz/FuzzJobRequest seeds it beside the shapes above.
func FuzzJobRequest(f *testing.F) {
	for _, body := range jobRequestSeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, id, err := decodeBody(body)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", req, err)
		}
		_, id2, err := decodeBody(again)
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", again, err)
		}
		if id != id2 {
			t.Fatalf("job id %s became %s after re-encoding %q as %s", id, id2, body, again)
		}
	})
}
