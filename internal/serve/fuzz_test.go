package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
)

// decodeBody runs body through the submit handler's decoder.
func decodeBody(body []byte) (JobRequest, cell, error) {
	return decodeJobRequest(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
}

// FuzzJobRequest feeds arbitrary bytes to the POST /v1/jobs decoder. It
// must never panic, and a body it accepts must name the same job after
// its request is re-encoded and decoded again: the job id is the
// cluster's shard key, so a client or router that re-serializes a
// request has to land on the same job. The committed corpus under
// testdata/fuzz/FuzzJobRequest seeds it beside the shapes below.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
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
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, c, err := decodeBody(body)
		if err != nil {
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not encode: %v", req, err)
		}
		_, c2, err := decodeBody(again)
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", again, err)
		}
		if id, id2 := c.id(), c2.id(); id != id2 {
			t.Fatalf("job id %s became %s after re-encoding %q as %s", id, id2, body, again)
		}
	})
}
