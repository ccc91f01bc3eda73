package router

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// Cluster is an in-process fleet — N shilld server engines on loopback
// listeners behind one Router — used by the cluster tests. It exercises
// the same code a multi-process deployment runs (real TCP, real health
// probes, real migrations); only the process boundary is folded away.
type Cluster struct {
	Replicas []*ClusterReplica
	Router   *Router
	// URL is the router's base URL — point clients (loadgen included)
	// here.
	URL string

	routerSrv *http.Server
	routerLis net.Listener
}

// ClusterReplica is one in-process shilld.
type ClusterReplica struct {
	URL string
	Srv *server.Server

	httpSrv *http.Server
	lis     net.Listener
	stopped bool
}

// StartCluster boots n replicas and a router over them, waiting until
// every replica probes healthy. mut, when non-nil, adjusts each
// replica's server config before it starts (i is the replica index).
// rcfg adjusts the router config (Replicas is filled in here).
func StartCluster(n int, mut func(i int, cfg *server.Config), rcfg Config) (*Cluster, error) {
	c := &Cluster{}
	for i := 0; i < n; i++ {
		cfg := server.Config{}
		if mut != nil {
			mut(i, &cfg)
		}
		rep, err := startReplica(cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		c.Replicas = append(c.Replicas, rep)
		rcfg.Replicas = append(rcfg.Replicas, rep.URL)
	}
	if rcfg.HealthInterval <= 0 {
		rcfg.HealthInterval = 50 * time.Millisecond
	}
	rt, err := New(rcfg)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.routerLis = lis
	c.URL = "http://" + lis.Addr().String()
	c.routerSrv = &http.Server{Handler: rt.Handler()}
	go c.routerSrv.Serve(lis)
	rt.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.WaitHealthy(ctx, n); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func startReplica(cfg server.Config) (*ClusterReplica, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	rep := &ClusterReplica{
		URL:     "http://" + lis.Addr().String(),
		Srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		lis:     lis,
	}
	go rep.httpSrv.Serve(lis)
	return rep, nil
}

// Drain gracefully restarts-out replica i, exactly the way shilld
// handles SIGTERM with -handoff-grace: health flips to 503 so the
// router migrates the replica's tenants with their state, the replica
// waits (bounded by ctx) for every tenant to be exported, and only
// then stops its listener and closes its machines.
func (c *Cluster) Drain(ctx context.Context, i int) error {
	rep := c.Replicas[i]
	rep.Srv.StartDrain()
	rep.Srv.AwaitHandoff(ctx)
	rep.stopped = true
	if err := rep.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return rep.Srv.Drain(ctx)
}

// Kill drops replica i abruptly — no drain, no handoff: connections
// reset, machines close without snapshots. The hard-down case.
func (c *Cluster) Kill(i int) {
	rep := c.Replicas[i]
	rep.stopped = true
	rep.httpSrv.Close()
	rep.Srv.Close()
}

// Restart boots a fresh server engine for replica i on its old
// address, as a restarted shilld would come back after a rolling
// restart. The machine state it had before is gone (drained replicas
// handed it off; killed ones lost it) — it returns empty and the
// router migrates its canonical tenants back.
func (c *Cluster) Restart(i int, mut func(cfg *server.Config)) error {
	rep := c.Replicas[i]
	if !rep.stopped {
		return fmt.Errorf("replica %d is still running", i)
	}
	addr := rep.lis.Addr().String()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rebinding %s: %w", addr, err)
	}
	cfg := server.Config{}
	if mut != nil {
		mut(&cfg)
	}
	srv := server.New(cfg)
	rep.Srv = srv
	rep.httpSrv = &http.Server{Handler: srv.Handler()}
	rep.lis = lis
	rep.stopped = false
	go rep.httpSrv.Serve(lis)
	return nil
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	if c.Router != nil {
		c.Router.Close()
	}
	if c.routerSrv != nil {
		c.routerSrv.Close()
	}
	for _, rep := range c.Replicas {
		if !rep.stopped {
			rep.httpSrv.Close()
			rep.Srv.Close()
		}
	}
}
