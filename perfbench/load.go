package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// sent is the outcome of one request, or of a burst and its parts.
type sent struct {
	op      *op
	status  int
	body    []byte
	err     error
	latency time.Duration
	end     time.Time
	parts   []sent
}

func (r sent) ok() bool {
	for _, p := range r.parts {
		if !p.ok() {
			return false
		}
	}
	return r.err == nil && r.status == http.StatusOK
}

// phase counts one phase's requests.
type phase struct {
	name                         string
	attempted, succeeded, failed int
}

func phaseOf(name string, rs []sent) phase {
	p := phase{name: name, attempted: len(rs)}
	for _, r := range rs {
		if r.ok() {
			p.succeeded++
		} else {
			p.failed++
		}
	}
	return p
}

// timedRun is what one timed phase observed, over HTTP or in-process.
type timedRun struct {
	primary [][]sent // per client, in send order
	writer  []sent
	// start is when the timed phase began; wall runs from it to the last
	// primary reply.
	start time.Time
	wall  time.Duration
}

func (t *timedRun) primaryAll() []sent {
	var out []sent
	for _, c := range t.primary {
		out = append(out, c...)
	}
	return out
}

// measured is what the timed phase over HTTP observed.
type measured struct {
	timedRun
	warm []sent
	// span runs from start to the last reply of any kind.
	span time.Duration
	// serverCPU is relmaxd's utime+stime over the span, in seconds.
	serverCPU float64
	steal     float64
}

func urlFor(s *server, w workload, kind string) string {
	switch kind {
	case opSolve:
		return s.base + "/v1/solve"
	case opEstimate:
		return s.base + "/v1/estimate"
	default:
		return s.base + "/v2/datasets/" + w.dataset + "/mutations"
	}
}

func send(client *http.Client, s *server, w workload, o *op) sent {
	if o.kind == opBurst {
		b := sent{op: o, status: http.StatusOK, parts: make([]sent, len(o.parts))}
		start := time.Now()
		for i := range o.parts {
			b.parts[i] = send(client, s, w, &o.parts[i])
		}
		b.end = time.Now()
		b.latency = b.end.Sub(start)
		return b
	}
	start := time.Now()
	status, body, err := post(client, urlFor(s, w, o.kind), o.body)
	end := time.Now()
	return sent{op: o, status: status, body: body, err: err, latency: end.Sub(start), end: end}
}

// runner executes one op of the sequence and returns its outcome.
type runner func(o *op) sent

// closedLoop runs every client's ops concurrently, each client sending its
// next request only once the previous reply has been read. Each completed
// op is signalled on done, unless done is nil.
func closedLoop(perClient [][]op, do runner, done chan<- struct{}) [][]sent {
	out := make([][]sent, len(perClient))
	var wg sync.WaitGroup
	for c := range perClient {
		out[c] = make([]sent, len(perClient[c]))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range perClient[c] {
				out[c][i] = do(&perClient[c][i])
				if done != nil {
					done <- struct{}{}
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runTimed runs the timed phase of in's sequence with do: the clients'
// closed loops and, where the workload has one, the writer beside them.
// The writer sends batch i once i·R/B of the R primary ops have completed,
// so every run puts the same writes between the same reads however fast
// the machine is. It returns once the writer has finished too.
func runTimed(in *inputs, do runner) timedRun {
	reads := 0
	for _, c := range in.timed {
		reads += len(c)
	}
	done := make(chan struct{}, reads)
	t := timedRun{start: time.Now(), writer: make([]sent, len(in.writer))}
	var wg sync.WaitGroup
	if len(in.writer) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			completed := 0
			for i := range in.writer {
				for completed < i*reads/len(in.writer) {
					<-done
					completed++
				}
				t.writer[i] = do(&in.writer[i])
			}
		}()
	}
	t.primary = closedLoop(in.timed, do, done)
	wg.Wait()
	last := t.start
	for _, r := range t.primaryAll() {
		if r.end.After(last) {
			last = r.end
		}
	}
	t.wall = last.Sub(t.start)
	return t
}

// drive sends the warm-up requests, then the timed phase, to relmaxd.
func drive(s *server, in *inputs) (*measured, error) {
	client := newClient(in.w.clients + 1)
	defer client.CloseIdleConnections()
	do := func(o *op) sent { return send(client, s, in.w, o) }
	m := &measured{}
	for _, c := range closedLoop(in.warm, do, nil) {
		m.warm = append(m.warm, c...)
	}
	cpu0, err := processCPU(s.pid())
	if err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	m.timedRun = runTimed(in, do)
	m.span = time.Since(m.start)
	cpu1, err := processCPU(s.pid())
	if err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	m.serverCPU = cpu1 - cpu0
	m.steal = stealShare(host0, host1)
	if m.wall <= 0 {
		return nil, fmt.Errorf("timed phase measured no wall time")
	}
	return m, nil
}
