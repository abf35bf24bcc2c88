package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"sqpr/internal/plan"
	"sqpr/internal/serve"
	"sqpr/internal/wal"
	"sqpr/internal/wal/walfault"
)

// DrainScale parameterises the rolling-drain scenario: the workload is
// admitted through the HTTP control plane of a durable admission service,
// then hosts are drained one at a time through journaled Repair calls —
// the operator's rolling-maintenance loop — while a probe keeps hitting
// the API, asserting the daemon stays responsive and no admission is lost.
type DrainScale struct {
	Scale
	// DrainHosts is how many hosts are rolled through drain → recover.
	DrainHosts int
}

// DefaultDrainScale rolls a quarter of the default cluster.
func DefaultDrainScale() DrainScale {
	return DrainScale{Scale: DefaultScale(), DrainHosts: 4}
}

// DrainResult aggregates one rolling-drain run.
type DrainResult struct {
	// Submitted queries went through POST /v1/submit; Admitted of them
	// were admitted.
	Submitted, Admitted int
	// HostsDrained hosts were drained and recovered, dropping Dropped
	// queries in total and losing LostAdmissions admissions (both must be
	// zero: draining evacuates best-effort, existing placements stay valid).
	HostsDrained, Dropped, LostAdmissions int
	// ProbeOK of ProbeTotal concurrent API probes (GET /readyz +
	// /v1/admitted) succeeded while the roll was underway; at least one
	// of them began after each drain returned.
	ProbeOK, ProbeTotal int
	// RecoveredAdmitted is the admitted count a fresh planner recovers
	// from the journal after the daemon exits; Durable reports whether it
	// matches the live final count.
	RecoveredAdmitted int
	Durable           bool
}

// drainAPI is a minimal JSON client for the control plane under test.
type drainAPI struct {
	base   string
	client *http.Client
}

func (a *drainAPI) call(ctx context.Context, method, path string, body, into any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
	}
	if into != nil {
		return json.Unmarshal(data, into)
	}
	return nil
}

func (a *drainAPI) admittedCount(ctx context.Context) (int, error) {
	var out struct {
		Count int `json:"count"`
	}
	err := a.call(ctx, "GET", "/v1/admitted", nil, &out)
	return out.Count, err
}

// RollingDrain runs the rolling-drain scenario on the SQPR planner behind
// the HTTP control plane. Cancelling ctx stops the run gracefully; the
// partial result is still valid.
func RollingDrain(ctx context.Context, dsc DrainScale) (DrainResult, error) {
	var res DrainResult
	env := BuildEnv(dsc.Scale)
	fs := walfault.New()
	p := env.NewPlanner(dsc.Scale)
	svc, _, err := plan.OpenService(p, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		return res, fmt.Errorf("sim: opening durable service: %w", err)
	}
	srv, err := serve.New(serve.Config{Service: svc, System: env.Sys})
	if err != nil {
		svc.Close()
		return res, fmt.Errorf("sim: building control plane: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return res, fmt.Errorf("sim: listening: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	api := &drainAPI{base: "http://" + ln.Addr().String(), client: &http.Client{}}

	// Admit the workload through the wire, as a client would.
	for _, q := range env.Queries {
		if ctx.Err() != nil {
			break
		}
		var out struct {
			Admitted bool `json:"admitted"`
		}
		if err := api.call(ctx, "POST", "/v1/submit", map[string]any{"query": q}, &out); err != nil {
			if ctx.Err() != nil {
				break
			}
			return res, fmt.Errorf("sim: drain submit %d: %w", q, err)
		}
		res.Submitted++
	}
	res.Admitted, err = api.admittedCount(ctx)
	if err != nil && ctx.Err() == nil {
		return res, fmt.Errorf("sim: reading admitted count: %w", err)
	}

	// Concurrent probe: the API must keep answering while hosts roll.
	// probeTotal counts the probes begun, probeEnded those completed.
	var probeOK, probeTotal, probeEnded atomic.Int64
	probeStop := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-probeStop:
				return
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
			probeTotal.Add(1)
			var out struct {
				Count int `json:"count"`
			}
			if api.call(ctx, "GET", "/readyz", nil, nil) == nil &&
				api.call(ctx, "GET", "/v1/admitted", nil, &out) == nil {
				probeOK.Add(1)
			}
			probeEnded.Add(1)
		}
	}()
	// awaitProbe waits, bounded by ctx, until the probe after the first
	// mark probes has completed. Probes run one at a time, so that probe
	// began after mark was read.
	awaitProbe := func(mark int64) {
		for probeEnded.Load() <= mark && ctx.Err() == nil {
			select {
			case <-ctx.Done():
			case <-time.After(time.Millisecond):
			}
		}
	}

	// Roll: drain each host through a journaled Repair, assert nothing was
	// lost, let the API be probed while it is drained, recover it, move
	// on. Draining evacuates best-effort — existing placements stay valid —
	// so admissions must survive every step.
	nHosts := dsc.DrainHosts
	if nHosts > dsc.Hosts {
		nHosts = dsc.Hosts
	}
	for h := 0; h < nHosts; h++ {
		if ctx.Err() != nil {
			break
		}
		before, err := api.admittedCount(ctx)
		if err != nil {
			break
		}
		var rr struct {
			Admitted bool  `json:"admitted"`
			Dropped  []int `json:"dropped"`
		}
		drain := map[string]any{"events": []map[string]any{{"kind": "drain", "host": h}}}
		if err := api.call(ctx, "POST", "/v1/repair", drain, &rr); err != nil {
			if ctx.Err() != nil {
				break
			}
			return res, fmt.Errorf("sim: draining host %d: %w", h, err)
		}
		drained := probeTotal.Load()
		res.Dropped += len(rr.Dropped)
		after, err := api.admittedCount(ctx)
		if err != nil {
			break
		}
		if after < before {
			res.LostAdmissions += before - after
		}
		awaitProbe(drained)
		recover := map[string]any{"events": []map[string]any{{"kind": "recover", "host": h}}}
		if err := api.call(ctx, "POST", "/v1/repair", recover, nil); err != nil {
			if ctx.Err() != nil {
				break
			}
			return res, fmt.Errorf("sim: recovering host %d: %w", h, err)
		}
		res.HostsDrained++
	}

	close(probeStop)
	<-probeDone
	res.ProbeOK = int(probeOK.Load())
	res.ProbeTotal = int(probeTotal.Load())

	// Daemon exit path: stop readiness, wait out in-flight requests, flush
	// the journal, close the service.
	//sqpr:ctxroot graceful drain outlives the run's cancellation
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.StartDrain()
	hs.Shutdown(shutCtx)
	cancel()
	svc.SyncWAL()
	final := svc.AdmittedCount()
	svc.Close()

	// Durability check: a fresh planner recovered from the journal image
	// must hold exactly the admissions the daemon ended with.
	env2 := BuildEnv(dsc.Scale)
	p2 := env2.NewPlanner(dsc.Scale)
	svc2, rs, err := plan.OpenService(p2, plan.ServiceConfig{}, fs, wal.Options{})
	if err != nil {
		return res, fmt.Errorf("sim: recovering after drain run: %w", err)
	}
	svc2.Close()
	res.RecoveredAdmitted = rs.Admitted
	res.Durable = rs.Admitted == final
	return res, nil
}
