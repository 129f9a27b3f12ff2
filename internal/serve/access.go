package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ibox/internal/obs"
)

// Per-request observability: every /v1 request gets a request ID
// (accepted from X-Request-Id or generated), carried through admission,
// registry load and the kernel call via a request meta record in the
// context. At completion the middleware:
//
//   - echoes the ID in the X-Request-Id response header;
//   - records the labeled metric families (route / model / status
//     class) and the flat totals they reconcile with;
//   - emits one structured access-log line through obs.Logger() with
//     latency, queue wait, model, status and shed reason;
//   - for a sampled fraction of requests (Config.TraceSample), records
//     an obs span lane (request → queue → load → simulate) exportable
//     as Chrome trace JSON.
//
// When nothing is observing — registry disabled, no logger installed,
// request not sampled — the middleware takes the fast path: assign the
// ID header, run the handler, and touch no clocks, no context values
// and no allocations beyond the ID itself.

// RequestIDHeader carries the request ID in both directions.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an accepted client-supplied request ID; longer
// values are replaced with a generated one so a hostile header can't
// bloat logs or spans.
const maxRequestIDLen = 128

// sanitizeRequestID vets a client-supplied request ID before it is
// echoed into the response header, the structured access log and trace
// span args: over-long values are rejected outright (no truncation — a
// partial hostile ID is still hostile), and bytes outside the visible
// ASCII range (controls, spaces, DEL, non-ASCII) are stripped so a
// crafted header cannot inject line breaks or escape sequences into a
// log lane. Returns "" when nothing usable survives; the caller then
// generates an ID. Clean IDs return as-is without allocating.
func sanitizeRequestID(id string) string {
	if len(id) > maxRequestIDLen {
		return ""
	}
	clean := true
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			clean = false
			break
		}
	}
	if clean {
		return id
	}
	b := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		if id[i] > 0x20 && id[i] < 0x7f {
			b = append(b, id[i])
		}
	}
	return string(b)
}

// reqMeta accumulates one request's observability state as it flows
// through the serving path. All methods are nil-receiver-safe, so
// layers below the middleware never guard.
type reqMeta struct {
	id    string
	route string
	model string

	timed bool // clocks are running (metrics, logger or sampling active)
	start time.Time

	queueWaitNs int64
	shedReason  string

	span *obs.Span // non-nil only for sampled requests
}

// metaKey is the context key for the request meta.
type metaKey struct{}

// metaFrom returns the request's meta, or nil on the fast path.
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(metaKey{}).(*reqMeta)
	return m
}

func (m *reqMeta) setModel(id string) {
	if m != nil {
		m.model = id
		m.span.SetArg("model", id)
	}
}

func (m *reqMeta) setQueueWait(d time.Duration) {
	if m != nil {
		m.queueWaitNs = int64(d)
	}
}

func (m *reqMeta) setShed(reason string) {
	if m != nil {
		m.shedReason = reason
	}
}

// isTimed reports whether the middleware armed the clocks for this
// request.
func (m *reqMeta) isTimed() bool { return m != nil && m.timed }

// childSpan opens a child of the request's sampled span; nil (a no-op
// span) when the request isn't sampled.
func (m *reqMeta) childSpan(name string) *obs.Span {
	if m == nil {
		return nil
	}
	return m.span.Start(name)
}

// statusRecorder captures the response status and body size.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// Unwrap supports http.ResponseController pass-through.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// statusClass buckets an HTTP status into its class label ("2xx" …).
// The strings are constants, so labeling allocates nothing.
func statusClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// newRequestID returns the next generated request ID:
// "<8-hex-process-prefix>-<hex sequence>".
func (s *Server) newRequestID(seq uint64) string {
	buf := make([]byte, 0, len(s.idPrefix)+1+16)
	buf = append(buf, s.idPrefix...)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, seq, 16)
	return string(buf)
}

// newIDPrefix draws the per-process request-ID prefix.
func newIDPrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a clock-derived prefix; uniqueness within the
		// process still comes from the sequence number.
		return strconv.FormatInt(time.Now().UnixNano()&0xffffffff, 16)
	}
	return hex.EncodeToString(b[:])
}

// instrument wraps a /v1 handler with the per-request observability
// described at the top of the file. route is the stable route label
// ("simulate", "models").
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		seq := s.reqSeq.Add(1)
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = s.newRequestID(seq)
		}
		w.Header().Set(RequestIDHeader, id)

		logger := obs.Logger()
		sampleThis := s.sampleEvery > 0 && seq%s.sampleEvery == 0 && obs.Enabled()
		if s.httpRequests == nil && logger == nil && !sampleThis {
			// Fast path: nothing is observing; no clocks, no context.
			h(w, r)
			return
		}

		m := &reqMeta{id: id, route: route, model: "-", timed: true, start: time.Now()}
		if sampleThis {
			m.span = obs.StartSpan("request")
			m.span.SetArg("id", id)
			m.span.SetArg("route", route)
		}
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r.WithContext(context.WithValue(r.Context(), metaKey{}, m)))
		if rec.status == 0 {
			rec.status = http.StatusOK
		}

		latency := time.Since(m.start)
		class := statusClass(rec.status)
		s.httpRequests.With(route, class).Add(1)
		s.httpLatency.Observe(int64(latency))
		s.requestLatency.With(route, m.model, class).Observe(int64(latency))

		if m.span != nil {
			m.span.SetArg("status", class)
			if m.shedReason != "" {
				m.span.SetArg("shed", m.shedReason)
			}
			m.span.End()
		}

		if logger != nil {
			logger.LogAttrs(r.Context(), slog.LevelInfo, "access",
				slog.String("request_id", id),
				slog.String("route", route),
				slog.String("model", m.model),
				slog.Int("status", rec.status),
				slog.Float64("latency_ms", float64(latency)/1e6),
				slog.Float64("queue_wait_ms", float64(m.queueWaitNs)/1e6),
				slog.String("shed", m.shedReason),
				slog.Int64("bytes_out", rec.bytes),
			)
		}
	}
}
