package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"heteropim"
)

// Job lifecycle states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// VariantSpec mirrors heteropim.Variant on the wire (Section VI-E
// runtime-technique toggles; Hetero PIM only).
type VariantSpec struct {
	RecursiveKernels  bool `json:"recursive_kernels"`
	OperationPipeline bool `json:"operation_pipeline"`
}

// JobRequest is the POST /v1/jobs body: one simulation cell. The
// optional axes mirror heteropim.BatchCell, so any cell a scenario can
// compile is also addressable as a single wire request.
type JobRequest struct {
	// Config is a flag-style platform name (heteropim.ParseConfig).
	Config string `json:"config"`
	// Model is a workload model name (heteropim.ParseModel).
	Model string `json:"model"`
	// FreqScale is the PIM/stack frequency multiplier (0 means 1).
	FreqScale float64 `json:"freq_scale,omitempty"`
	// Variant toggles RC/OP; requires the hetero config.
	Variant *VariantSpec `json:"variant,omitempty"`
	// BatchSize overrides the model's paper batch size when > 0.
	BatchSize int `json:"batch_size,omitempty"`
	// Stacks shards the minibatch across that many stacks when > 1;
	// AllReduce picks the gradient schedule ("ring", "tree", "" = ring).
	Stacks    int    `json:"stacks,omitempty"`
	AllReduce string `json:"allreduce,omitempty"`
	// Processors runs Hetero PIM with that many programmable processors
	// at constant logic-die area when > 0 (requires the hetero config).
	Processors int `json:"processors,omitempty"`
	// Instrument runs the job live with a metrics collector attached
	// (never the result cache) so the SSE stream can carry progress.
	Instrument bool `json:"instrument,omitempty"`
}

// cell is a validated, canonicalized JobRequest — the unit of dedup:
// the simulation cell, plus whether to run it instrumented.
type cell struct {
	heteropim.BatchCell
	instrument bool
}

// normalize validates a request against the public parsers and
// canonicalizes it (case-insensitive names, default frequency,
// collapsed single-stack allreduce), so every spelling of the same
// cell shares one job.
func normalize(req JobRequest) (cell, error) {
	cfg, err := heteropim.ParseConfig(req.Config)
	if err != nil {
		return cell{}, err
	}
	model, err := heteropim.ParseModel(req.Model)
	if err != nil {
		return cell{}, err
	}
	fs := req.FreqScale
	if fs == 0 {
		fs = 1
	}
	if fs < 0 {
		return cell{}, fmt.Errorf("serve: freq_scale must be positive, got %g", fs)
	}
	if req.Variant != nil {
		if cfg != heteropim.ConfigHeteroPIM {
			return cell{}, fmt.Errorf("serve: variant toggles need the hetero config, got %q", req.Config)
		}
		if req.Processors > 0 {
			return cell{}, fmt.Errorf("serve: variant and processors are mutually exclusive")
		}
	}
	if req.Processors < 0 {
		return cell{}, fmt.Errorf("serve: processors must be >= 0, got %d", req.Processors)
	}
	if req.Processors > 0 && cfg != heteropim.ConfigHeteroPIM {
		return cell{}, fmt.Errorf("serve: processors need the hetero config, got %q", req.Config)
	}
	if req.BatchSize < 0 {
		return cell{}, fmt.Errorf("serve: batch_size must be >= 0, got %d", req.BatchSize)
	}
	if req.BatchSize > 0 && (req.Variant != nil || req.Processors > 0) {
		return cell{}, fmt.Errorf("serve: batch_size does not combine with variant/processors")
	}
	if req.Stacks < 0 {
		return cell{}, fmt.Errorf("serve: stacks must be >= 0, got %d", req.Stacks)
	}
	c := cell{
		BatchCell: heteropim.BatchCell{Config: cfg, Model: model, FreqScale: fs,
			BatchSize: req.BatchSize, Processors: req.Processors},
		instrument: req.Instrument,
	}
	if req.Variant != nil {
		c.Variant = &heteropim.Variant{
			RecursiveKernels:  req.Variant.RecursiveKernels,
			OperationPipeline: req.Variant.OperationPipeline,
		}
	}
	if req.Stacks > 1 {
		c.Stacks, c.AllReduce = req.Stacks, req.AllReduce
		switch req.AllReduce {
		case "":
			c.AllReduce = heteropim.AllReduceRing
		case heteropim.AllReduceRing, heteropim.AllReduceTree:
		default:
			return cell{}, fmt.Errorf("serve: unknown allreduce %q (valid: ring, tree)", req.AllReduce)
		}
	}
	if req.Instrument && (req.BatchSize > 0 || c.Stacks > 1 || req.Processors > 0 || req.Variant != nil) {
		return cell{}, fmt.Errorf("serve: instrument needs a plain config/model/freq_scale cell")
	}
	return c, nil
}

// JobID computes the content-addressed id the server assigns to req's
// cell. Identical cells produce identical ids on every replica, which
// makes the id double as the cluster router's shard key: the ring can
// pick a job's owner from the request body alone.
func JobID(req JobRequest) (string, error) {
	c, err := normalize(req)
	if err != nil {
		return "", err
	}
	return c.id(), nil
}

// id derives the job's content-addressed identifier: identical cells
// map to the same job, which is the request-dedup mechanism. Extended
// axes append only when non-default, so the ids of plain cells are
// byte-stable across releases (a pinned test holds them to that).
func (c cell) id() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%g|", heteropim.ConfigName(c.Config), c.Model, c.FreqScale)
	if c.Variant != nil {
		fmt.Fprintf(h, "rc=%t,op=%t|", c.Variant.RecursiveKernels, c.Variant.OperationPipeline)
	}
	fmt.Fprintf(h, "ins=%t", c.instrument)
	if c.BatchSize > 0 {
		fmt.Fprintf(h, "|batch=%d", c.BatchSize)
	}
	if c.Stacks > 1 {
		fmt.Fprintf(h, "|stacks=%d,%s", c.Stacks, c.AllReduce)
	}
	if c.Processors > 0 {
		fmt.Fprintf(h, "|procs=%d", c.Processors)
	}
	return fmt.Sprintf("j%016x", h.Sum64())
}

// variantSpec renders a cell's RC/OP toggles in their wire form.
func variantSpec(v *heteropim.Variant) *VariantSpec {
	if v == nil {
		return nil
	}
	return &VariantSpec{RecursiveKernels: v.RecursiveKernels, OperationPipeline: v.OperationPipeline}
}

// RequestFromBatch renders one compiled scenario cell as the wire
// request a client would POST for it. Both scenario endpoints (the
// replica's and the router's) and the cluster check admit compiled
// cells through it, so a scenario cell becomes exactly the job its own
// POST /v1/jobs would.
func RequestFromBatch(bc heteropim.BatchCell) JobRequest {
	req := JobRequest{Config: heteropim.ConfigName(bc.Config), Model: string(bc.Model),
		BatchSize: bc.BatchSize, Processors: bc.Processors, Variant: variantSpec(bc.Variant)}
	if bc.Variant != nil || bc.Processors > 0 {
		req.Config = "hetero"
	}
	if bc.FreqScale != 0 && bc.FreqScale != 1 {
		req.FreqScale = bc.FreqScale
	}
	if bc.Stacks > 1 {
		req.Stacks, req.AllReduce = bc.Stacks, bc.AllReduce
	}
	return req
}

// EncodeResult renders the canonical wire form of one result: compact
// JSON plus a trailing newline. encoding/json emits struct fields in
// declaration order and round-trips float64 exactly, so identical
// results serialize to identical bytes — the CI smoke job diffs these
// against a direct heteropim.Run.
func EncodeResult(r heteropim.Result) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// Result is a plain value struct; Marshal cannot fail on it.
		panic(err)
	}
	return append(b, '\n')
}

// Event is one server-sent event on a job's stream.
type Event struct {
	Type string
	Data []byte
}

// Job is one admitted simulation cell and its lifecycle.
type Job struct {
	ID string

	mu       sync.Mutex
	cell     cell
	status   string
	err      string
	result   []byte // canonical EncodeResult bytes when done
	requests int64  // submissions collapsed onto this job
	created  time.Time
	started  time.Time
	finished time.Time
	subs     []chan Event
	done     chan struct{}
	metrics  *heteropim.Metrics // instrumented jobs only
}

func newJob(c cell) *Job {
	j := &Job{
		ID:       c.id(),
		cell:     c,
		status:   StatusQueued,
		requests: 1,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	if c.instrument {
		j.metrics = heteropim.NewMetrics()
	}
	return j
}

// JobStatus is the GET /v1/jobs/{id} body (and the SSE status payload).
type JobStatus struct {
	ID         string          `json:"id"`
	Status     string          `json:"status"`
	Config     string          `json:"config"`
	Model      string          `json:"model"`
	FreqScale  float64         `json:"freq_scale"`
	Variant    *VariantSpec    `json:"variant,omitempty"`
	BatchSize  int             `json:"batch_size,omitempty"`
	Stacks     int             `json:"stacks,omitempty"`
	AllReduce  string          `json:"allreduce,omitempty"`
	Processors int             `json:"processors,omitempty"`
	Instrument bool            `json:"instrument,omitempty"`
	Requests   int64           `json:"requests"`
	QueueMs    float64         `json:"queue_ms"`
	RunMs      float64         `json:"run_ms"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// Status snapshots the job for clients.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:         j.ID,
		Status:     j.status,
		Config:     heteropim.ConfigName(j.cell.Config),
		Model:      string(j.cell.Model),
		FreqScale:  j.cell.FreqScale,
		Variant:    variantSpec(j.cell.Variant),
		BatchSize:  j.cell.BatchSize,
		Stacks:     j.cell.Stacks,
		AllReduce:  j.cell.AllReduce,
		Processors: j.cell.Processors,
		Instrument: j.cell.instrument,
		Requests:   j.requests,
		Error:      j.err,
	}
	switch j.status {
	case StatusQueued:
		// no timings yet
	case StatusRunning:
		s.QueueMs = j.started.Sub(j.created).Seconds() * 1e3
	default:
		s.QueueMs = j.started.Sub(j.created).Seconds() * 1e3
		s.RunMs = j.finished.Sub(j.started).Seconds() * 1e3
	}
	if j.status == StatusDone {
		// The stored bytes end in '\n'; RawMessage must not, so trim.
		s.Result = json.RawMessage(strings.TrimRight(string(j.result), "\n"))
	}
	return s
}

// Result returns the canonical result bytes once done.
func (j *Job) Result() ([]byte, string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err, j.status == StatusDone
}

// Done exposes the completion channel (closed on done or failed).
func (j *Job) Done() <-chan struct{} { return j.done }

// addRequest counts one deduplicated submission.
func (j *Job) addRequest() {
	j.mu.Lock()
	j.requests++
	j.mu.Unlock()
}

// subscribe registers an SSE listener; the returned cancel function
// unregisters it. Buffered so a slow listener drops events rather than
// stalling the job.
func (j *Job) subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	j.subs = append(j.subs, ch)
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				break
			}
		}
		j.mu.Unlock()
	}
	return ch, cancel
}

// broadcast sends an event to every subscriber, dropping to any whose
// buffer is full (progress events are advisory; terminal state is
// always available via Done/Status).
func (j *Job) broadcast(ev Event) {
	j.mu.Lock()
	subs := append([]chan Event(nil), j.subs...)
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// statusEvent renders the job's current status as an SSE event.
func (j *Job) statusEvent() Event {
	b, _ := json.Marshal(j.Status())
	return Event{Type: "status", Data: b}
}

// setRunning transitions queued -> running.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.broadcast(j.statusEvent())
}

// complete transitions to done with the canonical result bytes.
func (j *Job) complete(result []byte) {
	j.mu.Lock()
	j.status = StatusDone
	j.result = result
	j.finished = time.Now()
	j.mu.Unlock()
	j.broadcast(j.statusEvent())
	close(j.done)
}

// fail transitions to failed.
func (j *Job) fail(err error) {
	j.mu.Lock()
	j.status = StatusFailed
	j.err = err.Error()
	if j.started.IsZero() {
		j.started = j.created
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.broadcast(j.statusEvent())
	close(j.done)
}
