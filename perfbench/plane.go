package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/alvc/alvc"
	"github.com/alvc/alvc/internal/server"
	"github.com/alvc/alvc/internal/topology"
	"github.com/alvc/alvc/internal/workload"
)

// serverTopology is the topology cmd/alvc-server generates with its
// flag defaults.
func serverTopology() alvc.TopologyConfig {
	cfg := alvc.DefaultTopology()
	cfg.Racks = 8
	cfg.OPSCount = 24
	cfg.ToRUplinks = 16
	cfg.OPSChords = 2
	cfg.DualHomeFrac = 0.25
	cfg.Seed = 1
	cfg.Services = workload.ServiceNames(workload.DefaultCatalog())
	return cfg
}

// serverOptimizerTick is cmd/alvc-server's default -optimizer-tick.
const serverOptimizerTick = 30 * time.Second

// planeConfig is one workload's deviation from the server defaults.
type planeConfig struct {
	topo alvc.TopologyConfig
	opts []alvc.Option
	// traySize, when positive, groups every ToR-OPS link into shared
	// risk (SRLG) trays of this many links before the stack starts.
	traySize int
	seed     int64
	// traced turns on the benchmark's span log and sizes the program's
	// trace store so that nothing is evicted.
	traced bool
}

// plane is one running control plane: the architecture wired the way
// cmd/alvc-server wires it, its handler served on a loopback listener
// behind the benchmark's timing middleware, and the HTTP client that
// drives it.
type plane struct {
	arch  *alvc.Architecture
	topo  *topology.Topology
	http  *http.Server
	done  chan struct{}
	base  string
	hc    *http.Client
	mw    *middleware
	spans *spanLog
	seq   atomic.Uint64
	// trays lists each SRLG tray's links; trayOf maps a link to its
	// tray index.
	trays  [][]topology.LinkID
	trayOf map[topology.LinkID]int
	// wire is the client round trip minus the handler time, per route.
	wire map[string]*series
}

// conns is the number of client connections and worker goroutines the
// benchmark uses: one per CPU.
func conns() int { return runtime.NumCPU() }

func startPlane(cfg planeConfig) (*plane, error) {
	topo, err := topology.Generate(cfg.topo)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	p := &plane{topo: topo, done: make(chan struct{})}
	if cfg.traySize > 0 {
		if err := p.groupTrays(cfg.traySize, cfg.seed); err != nil {
			return nil, err
		}
	}
	opts := append([]alvc.Option{alvc.WithOptimizer(alvc.OptimizerOptions{RehomeMargin: 1})}, cfg.opts...)
	if cfg.traced {
		const unbounded = 1 << 22
		opts = append(opts, alvc.WithTracing(&alvc.TraceOptions{
			RecentPerKind: unbounded, SlowestN: 1, ErroredN: 1,
			MaxSpansPerTrace: 1 << 16, MaxSpans: unbounded, ChainDepth: 1,
		}))
		p.spans = newSpanLog()
	}
	arch, err := alvc.FromTopology(topo, opts...)
	if err != nil {
		return nil, fmt.Errorf("start architecture: %w", err)
	}
	p.arch = arch
	if err := arch.Optimizer().Start(serverOptimizerTick); err != nil {
		return nil, fmt.Errorf("start optimizer: %w", err)
	}
	ctrl, err := server.New(arch)
	if err != nil {
		arch.Optimizer().Stop()
		return nil, fmt.Errorf("start server: %w", err)
	}
	p.mw = newMiddleware(ctrl.Handler(), p.spans)
	p.wire = make(map[string]*series, len(routes))
	for _, r := range routes {
		p.wire[r] = &series{}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		arch.Optimizer().Stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	p.base = "http://" + ln.Addr().String()
	p.http = &http.Server{Handler: p.mw, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(p.done)
		_ = p.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	p.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns(),
		MaxIdleConnsPerHost: conns(),
		MaxConnsPerHost:     conns(),
		DisableCompression:  true,
	}}
	return p, nil
}

// stop shuts the listener, waits for the serving goroutine and stops
// the optimizer's background loop.
func (p *plane) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.http.Shutdown(ctx) // a timeout here still closes the listener
	<-p.done
	p.hc.CloseIdleConnections()
	p.arch.Optimizer().Stop()
}

// groupTrays shuffles the ToR-OPS links with the seed and deals them
// into SRLG trays of size links each.
func (p *plane) groupTrays(size int, seed int64) error {
	var links []topology.LinkID
	for _, l := range p.topo.Links() {
		if p.transit(l.From) && p.transit(l.To) {
			links = append(links, l.ID)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	p.trayOf = make(map[topology.LinkID]int, len(links))
	for i := 0; i < len(links); i += size {
		tray := links[i:min(i+size, len(links))]
		for _, l := range tray {
			if err := p.topo.SetLinkSRLG(l, len(p.trays)); err != nil {
				return err
			}
			p.trayOf[l] = len(p.trays)
		}
		p.trays = append(p.trays, tray)
	}
	return nil
}

// transit reports whether a node is a switch (ToR or OPS): the only
// nodes whose links a tray cut takes down.
func (p *plane) transit(id topology.NodeID) bool {
	n := p.topo.Node(id)
	return n != nil && (n.Kind == topology.KindToR || n.Kind == topology.KindOPS)
}

// Routes the middleware and the client attribute time to.
const (
	routeProvision     = "provision"
	routeBatch         = "provision_batch"
	routeDelete        = "delete"
	routeGet           = "get"
	routeList          = "list"
	routeMetrics       = "metrics"
	routeFailuresBatch = "failures_batch"
	routeOptimizerRun  = "optimizer_run"
	routeRecoverLink   = "recover_link"
	routeOther         = "other"
)

var routes = []string{routeProvision, routeBatch, routeDelete, routeGet, routeList,
	routeMetrics, routeFailuresBatch, routeOptimizerRun, routeRecoverLink, routeOther}

func routeOf(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/chains":
		return routeProvision
	case method == http.MethodPost && path == "/v1/chains:batch":
		return routeBatch
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/chains/"):
		return routeDelete
	case method == http.MethodGet && path == "/v1/chains":
		return routeList
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/chains/"):
		return routeGet
	case method == http.MethodGet && path == "/metrics":
		return routeMetrics
	case method == http.MethodPost && path == "/v1/failures:batch":
		return routeFailuresBatch
	case method == http.MethodPost && path == "/v1/optimizer:run":
		return routeOptimizerRun
	case method == http.MethodDelete && strings.HasPrefix(path, "/v1/failures/links/"):
		return routeRecoverLink
	}
	return routeOther
}

// Request headers the benchmark sets: a sequence number that pairs a
// client round trip with its handler time, and in traced runs the
// client span the handler span hangs under.
const (
	seqHeader  = "X-Bench-Seq"
	spanHeader = "X-Bench-Span"
)

// middleware times every call into the server's Handler() per route
// and counts the bytes it writes.
type middleware struct {
	next    http.Handler
	handler map[string]*series
	bytes   map[string]*series
	// pending holds each finished request's handler time until the
	// client that sent it collects it.
	pending sync.Map
	spans   *spanLog
}

func newMiddleware(next http.Handler, spans *spanLog) *middleware {
	m := &middleware{next: next, spans: spans,
		handler: make(map[string]*series, len(routes)), bytes: make(map[string]*series, len(routes))}
	for _, r := range routes {
		m.handler[r], m.bytes[r] = &series{}, &series{}
	}
	return m
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := routeOf(r.Method, r.URL.Path)
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	m.next.ServeHTTP(cw, r)
	end := time.Now()
	m.handler[route].addDur(end.Sub(start))
	m.bytes[route].add(float64(cw.n))
	if seq := r.Header.Get(seqHeader); seq != "" {
		m.pending.Store(seq, end.Sub(start))
	}
	if m.spans != nil {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		m.spans.add(span{Trace: r.Header.Get("X-Trace-Id"), ID: m.spans.nextID(), Parent: parent,
			Name: "handler." + route, Source: "bench", Start: start, End: end})
	}
}

// reply is one client round trip.
type reply struct {
	status int
	body   []byte
	rtt    time.Duration
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// Failure causes a request is counted under.
const (
	causeCapacity  = "409_capacity"
	causeConflict  = "409_other"
	causeServer    = "5xx"
	causeClient    = "4xx_other"
	causeTransport = "transport"
)

var causes = []string{causeCapacity, causeConflict, causeServer, causeClient, causeTransport}

// cause classifies a failed reply; "" for success.
func (r reply) cause() string {
	switch {
	case r.err != nil:
		return causeTransport
	case r.status == http.StatusConflict && bytes.Contains(r.body, []byte("insufficient capacity")):
		return causeCapacity
	case r.status == http.StatusConflict:
		return causeConflict
	case r.status >= 500:
		return causeServer
	case r.status >= 300:
		return causeClient
	}
	return ""
}

// call sends one request and reads the whole response. In traced runs
// the request pins its trace ID so the program's spans for it share
// the ID with the benchmark's client and handler spans.
func (p *plane) call(method, path string, body any) reply {
	route := routeOf(method, path)
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{err: fmt.Errorf("encode %s body: %w", route, err)}
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, p.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	seq := strconv.FormatUint(p.seq.Add(1), 10)
	req.Header.Set(seqHeader, seq)
	var clientSpan uint64
	if p.spans != nil {
		clientSpan = p.spans.nextID()
		req.Header.Set("X-Trace-Id", "pb-"+seq)
		req.Header.Set(spanHeader, strconv.FormatUint(clientSpan, 10))
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := p.hc.Do(req)
	var r reply
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	r.rtt, r.err = end.Sub(start), err
	if h, ok := p.mw.pending.LoadAndDelete(seq); ok {
		p.wire[route].addDur(r.rtt - h.(time.Duration))
	}
	if p.spans != nil {
		p.spans.add(span{Trace: "pb-" + seq, ID: clientSpan, Name: "client." + route,
			Source: "bench", Start: start, End: end})
	}
	return r
}

// decode unmarshals a successful reply's body.
func (r reply) decode(v any) error {
	if !r.ok() {
		return errors.New("decode of a failed reply")
	}
	return json.Unmarshal(r.body, v)
}

// scrape fetches and parses /metrics.
func (p *plane) scrape() (scrape, reply, error) {
	r := p.call(http.MethodGet, "/metrics", nil)
	if !r.ok() {
		return nil, r, fmt.Errorf("scrape /metrics: status %d: %v", r.status, r.err)
	}
	s, err := parseScrape(string(r.body))
	return s, r, err
}

// listChains fetches GET /v1/chains.
func (p *plane) listChains() ([]server.DeploymentJSON, reply, error) {
	r := p.call(http.MethodGet, "/v1/chains", nil)
	var out []server.DeploymentJSON
	if !r.ok() {
		return nil, r, fmt.Errorf("list chains: status %d: %v", r.status, r.err)
	}
	return out, r, r.decode(&out)
}
