package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	repro "repro"
)

// warmupSeed draws the service warm-up spec, from a stream the
// non-negative run seeds never reach, so the warm-up caches nothing
// the timed ops ask for.
const warmupSeed = -1

// serviceConns is the number of closed-loop connections, and the
// coflowd worker count. With one, the client and coflowd take turns
// on one core (see procs).
const serviceConns = 1

// coflowd is a coflowd process the benchmark started.
type coflowd struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startCoflowd launches bin on a free local port and waits until
// /healthz answers; it returns the process and that wait.
func startCoflowd(ctx context.Context, bin string) (*coflowd, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(serviceConns))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting coflowd: %w", err)
	}
	d := &coflowd{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("coflowd exited before answering /healthz: %v", d.err)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("coflowd did not answer /healthz within 30s")
		}
	}
}

// stop asks coflowd to shut down and waits until it has exited.
func (d *coflowd) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// metrics scrapes /metrics into a map from series name to value.
func (d *coflowd) metrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serviceOps hands out the service workload's op sequence: op i sends
// fresh spec k, either the next unsent one or, with probability
// serviceRepeat, one of the last serviceRecent fresh specs again. The
// sequence depends only on the seed.
type serviceOps struct {
	seed  int64
	next  int // next op index
	fresh int // fresh specs handed out so far
}

func (s *serviceOps) take() (op, k int) {
	op = s.next
	s.next++
	if s.fresh > 0 && subSeed(s.seed, "service/repeat", op)%1000 < int64(serviceRepeat*1000) {
		back := int(subSeed(s.seed, "service/back", op) % int64(min(s.fresh, serviceRecent)))
		return op, s.fresh - 1 - back
	}
	s.fresh++
	return op, s.fresh - 1
}

// served is one service op as the client saw it.
type served struct {
	op, k int
	ms    float64
	hash  string // sha256 of the body, when the status was 200
	hit   bool   // X-Coflowd-Cache: hit
	err   error
}

// runService runs the service workload against a coflowd it starts:
// one closed-loop connection sends the seed's op sequence as
// POST /v1/run until the window is spent and at least z.minOps fresh
// specs were sent. After the loop, untimed, every 200 body must be
// byte-identical to the library report of its spec plus a newline.
func runService(ctx context.Context, c config) (*result, error) {
	r := &result{metrics: map[string]measured{}, wall: map[string]float64{}}
	var d *coflowd
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups timings
	for i := range setupRuns {
		var wait time.Duration
		var err error
		if d, wait, err = startCoflowd(ctx, c.coflowd); err != nil {
			return nil, err
		}
		setups.add(wait)
		if i < setupRuns-1 {
			d.stop()
			d = nil
		}
	}
	r.metrics["setup_s"] = measured{median(setups.scaled) / 1e3, len(setups.scaled)}
	r.wall["setup_s"] = median(setups.raw) / 1e3

	transport := &http.Transport{MaxConnsPerHost: serviceConns, MaxIdleConnsPerHost: serviceConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	// Untimed warm-up, on a spec outside the seed's sequence.
	warm, err := json.Marshal(serviceFresh(c.z, warmupSeed, 0))
	if err != nil {
		return nil, err
	}
	if _, err := post(client, d.base, warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var before map[string]float64
	var spans *tracer
	if c.trace {
		if before, err = d.metrics(client); err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
		spans = newTracer()
	}
	ops := &serviceOps{seed: c.seed}
	var (
		all   []served
		times timings
	)
	for start := time.Now(); time.Since(start) < c.window || ops.fresh < c.z.minOps; {
		op, k := ops.take()
		var out served
		doc, err := json.Marshal(serviceFresh(c.z, c.seed, k))
		if err == nil {
			id := spans.begin(op, 0, "coflowd.request")
			t0 := time.Now()
			out, err = post(client, d.base, doc)
			d := time.Since(t0)
			spans.end(id)
			out.ms = d.Seconds() * 1e3
			if !c.trace {
				times.add(d)
			}
		}
		out.op, out.k, out.err = op, k, err
		all = append(all, out)
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, fmt.Errorf("reading coflowd peak RSS: %w", err)
	}
	var after map[string]float64
	if c.trace {
		if after, err = d.metrics(client); err != nil {
			return nil, fmt.Errorf("scraping /metrics: %w", err)
		}
	}
	d.stop()
	d = nil

	var hitMS, missMS []float64
	for _, o := range all {
		r.attempted++
		switch {
		case o.err != nil:
			r.fail(o.op, serviceFresh(c.z, c.seed, o.k), o.err)
		case o.hit:
			hitMS = append(hitMS, o.ms)
		default:
			missMS = append(missMS, o.ms)
		}
	}

	q, digest, layers, err := checkService(ctx, c, all, spans)
	if err != nil {
		return nil, err
	}
	r.digest = digest
	if c.trace {
		run := `http_request_seconds_%s{route="/v1/run"}`
		delta := func(name string) float64 { return after[name] - before[name] }
		hits, misses := delta("cache_hits_total"), delta("cache_misses_total")
		r.metrics["coflowd.hit_ratio"] = measured{ratio(hits, hits+misses), int(hits + misses)}
		r.metrics["coflowd.hit_latency_p50_ms"] = measured{median(hitMS), len(hitMS)}
		r.metrics["coflowd.miss_latency_p50_ms"] = measured{median(missMS), len(missMS)}
		r.metrics["coflowd.semaphore_wait_ms"] = measured{
			1e3 * ratio(delta("http_semaphore_wait_seconds_total"), delta("http_semaphore_wait_events_total")),
			int(delta("http_semaphore_wait_events_total"))}
		r.metrics["coflowd.server_ms"] = measured{
			1e3 * ratio(delta(fmt.Sprintf(run, "sum")), delta(fmt.Sprintf(run, "count"))),
			int(delta(fmt.Sprintf(run, "count")))}
		layerMetrics(r, layers)
		r.spans = spansFile(c)
		if err := spans.write(r.spans); err != nil {
			return nil, err
		}
		return r, nil
	}
	times.report(r, r.attempted-r.failed)
	r.metrics["success_rate"] = measured{1 - ratio(float64(r.failed), float64(r.attempted)), r.attempted}
	r.metrics["weighted_cct_ratio"] = measured{mean(q.ratios), len(q.ratios)}
	r.metrics["avg_cct_slots"] = measured{mean(q.ccts), len(q.ccts)}
	r.metrics["peak_rss_mb"] = measured{rss, 1}
	return r, nil
}

// post sends one spec document to /v1/run and hashes the body it gets
// back. A status other than 200 is a failed op.
func post(client *http.Client, base string, doc []byte) (served, error) {
	var out served
	resp, err := client.Post(base+"/v1/run", "application/json", bytes.NewReader(doc))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	out.hash = hashOf(body)
	out.hit = resp.Header.Get("X-Coflowd-Cache") == "hit"
	return out, nil
}

// serviceQuality is the schedule quality of the first z.minOps fresh
// specs.
type serviceQuality struct{ ratios, ccts []float64 }

// checkService runs the library on every distinct spec the service
// served (all sorted by op), gates its report, and checks each served
// body against it. It returns the quality of the first z.minOps fresh
// specs and the digest of the first z.minOps ops. A traced run also
// runs the first z.minOps distinct specs through the staged pipeline,
// for the per-layer library metrics.
func checkService(ctx context.Context, c config, all []served, tr *tracer) (serviceQuality, string, layerSamples, error) {
	var q serviceQuality
	byK := map[int][]served{}
	var ks []int
	for _, o := range all {
		if _, seen := byK[o.k]; !seen {
			ks = append(ks, o.k)
		}
		byK[o.k] = append(byK[o.k], o)
	}
	slices.Sort(ks)
	layers := layerSamples{}
	// A traced run measures the library layers on the first z.minOps
	// distinct specs; every served body is checked either way.
	traced := 0
	if c.trace {
		traced = min(len(ks), c.z.minOps)
	}
	runs := libraryRuns(ctx, c, ks, traced)
	quality := map[int]quality{}
	for i, k := range ks {
		s, rep, err := runs[i].spec, runs[i].rep, runs[i].err
		if err != nil {
			for _, o := range byK[k] {
				if o.err == nil {
					return q, "", nil, fmt.Errorf("%w: op %d: coflowd served spec %d, the library fails it: %v", errIncorrect, o.op, k, err)
				}
			}
			continue
		}
		qk, err := checkReport(s, rep)
		if err != nil {
			return q, "", nil, fmt.Errorf("spec %d: %w", k, err)
		}
		quality[k] = qk
		want, err := encodeServed(rep)
		if err != nil {
			return q, "", nil, err
		}
		for _, o := range byK[k] {
			if o.err != nil {
				continue
			}
			if err := checkServed(o.op, o.hash, want); err != nil {
				return q, "", nil, err
			}
		}
		if i < traced {
			layers.add("run.alloc_bytes", float64(runs[i].allocBytes))
			layers.add("run.allocs", float64(runs[i].allocs))
			// Staged ops take IDs after the HTTP ops'.
			if err := traceOp(ctx, tr, len(all)+k, s, want[:len(want)-1], runs[i].d, layers); err != nil {
				return q, "", nil, fmt.Errorf("spec %d: %w", k, err)
			}
		}
	}
	digest := sha256.New()
	for _, o := range all[:min(len(all), c.z.minOps)] {
		if o.err != nil {
			fmt.Fprintf(digest, "op %d failed\n", o.op)
			continue
		}
		fmt.Fprintf(digest, "%s\n", o.hash)
	}
	for k := range c.z.minOps {
		if qk, ok := quality[k]; ok {
			q.ratios = append(q.ratios, qk.weightedRatio)
			q.ccts = append(q.ccts, qk.avgCCT)
		}
	}
	return q, hex.EncodeToString(digest.Sum(nil)), layers, nil
}

// libraryRun is the library's run of one service spec.
type libraryRun struct {
	spec               repro.Spec
	rep                *repro.RunReport
	err                error
	d                  time.Duration
	allocBytes, allocs uint64
}

// libraryRuns runs the library on fresh specs ks, one at a time. The
// first traced of them also count their allocations.
func libraryRuns(ctx context.Context, c config, ks []int, traced int) []libraryRun {
	runs := make([]libraryRun, len(ks))
	var ms0, ms1 runtime.MemStats
	for i, k := range ks {
		s := serviceFresh(c.z, c.seed, k)
		if i < traced {
			runtime.GC() // as before a library op
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		rep, err := repro.Run(ctx, s)
		runs[i] = libraryRun{spec: s, rep: rep, err: err, d: time.Since(t0)}
		if i < traced {
			runtime.ReadMemStats(&ms1)
			runs[i].allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
			runs[i].allocs = ms1.Mallocs - ms0.Mallocs
		}
	}
	return runs
}
