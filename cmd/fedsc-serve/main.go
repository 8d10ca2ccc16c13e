// Command fedsc-serve is the online inference tier of the Fed-SC stack:
// it serves "which cluster does this point belong to?" queries over HTTP
// against the model artifacts of a content-addressed artifact store.
// The training binaries deploy into that store with -store (`fedsc
// -store`, `fedsc-server -store`); fedsc-serve serves every manifest
// model, /v1/assign routes by the request's "model" field and
// /v1/reload hot-deploys manifest changes:
//
//	fedsc-server -addr :7070 -clients 8 -L 20 -store ./models -tag cohort-a
//	fedsc-serve -addr :8080 -store ./models
//
// Endpoints: POST /v1/assign (single point or batch, optional model
// routing), GET /v1/models, POST /v1/reload, GET /healthz, GET /metrics
// (Prometheus text format). Each request is scored on its own handler
// goroutine; admission control sheds a request with 429 when its points
// would push the points in flight past -queue. SIGINT/SIGTERM trigger a
// graceful drain.
//
//	curl -s localhost:8080/v1/assign -d '{"model": "cohort-a", "point": [0.1, -0.3, 0.7]}'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"fedsc/internal/obs"
	"fedsc/internal/serve"
	"fedsc/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		storeDir  = flag.String("store", "", "content-addressed artifact store to serve (all manifest models)")
		maxQueue  = flag.Int("queue", 4096, "bound on points in flight; a request past it gets 429")
		grace     = flag.Duration("grace", 5*time.Second, "graceful-shutdown drain window")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/pprof and /storez on this address (empty = disabled)")
	)
	flag.Parse()

	if *storeDir == "" {
		fatalf("need -store <dir> (see -h)")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		fatalf("%v", err)
	}

	if *debugAddr != "" {
		storez := obs.DebugEndpoint{Pattern: "/storez", Handler: storezHandler(st)}
		dbg, err := obs.ServeDebug(*debugAddr, obs.Default(), nil, storez)
		if err != nil {
			fatalf("debug listener: %v", err)
		}
		log.Printf("fedsc-serve: debug endpoints on http://%s/metrics, /debug/pprof/ and /storez", dbg)
	}

	reg := serve.NewRegistry()
	names, err := reg.UseStore(st)
	if err != nil {
		fatalf("%v", err)
	}
	if len(names) == 0 {
		log.Printf("fedsc-serve: store %s has no models yet; unhealthy until a deploy + /v1/reload", *storeDir)
	} else {
		log.Printf("fedsc-serve: serving %d models from %s: %s",
			len(names), *storeDir, strings.Join(names, ", "))
	}

	// Publish the serving metrics on the process-wide registry so the
	// -debug-addr scrape and the handler's own /metrics agree.
	metrics := serve.NewMetricsOn(obs.Default())
	gate := serve.NewBatcher(reg, metrics, serve.BatcherOptions{MaxQueue: *maxQueue})
	handler := serve.NewHandler(reg, gate, metrics)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	ctx, cancel := serve.SignalContext(context.Background())
	defer cancel()
	log.Printf("fedsc-serve: serving on %s (queue=%d points)", ln.Addr(), *maxQueue)
	if err := serve.Serve(ctx, ln, handler, *grace); err != nil {
		fatalf("%v", err)
	}
	log.Printf("fedsc-serve: drained after %d requests (%d points assigned, %d shed)",
		metrics.Requests(), metrics.Assigned(), metrics.Shed())
}

// storezHandler renders the artifact store's operational stats (blob
// count and bytes, manifest entries, default model) plus the manifest
// itself as JSON on the -debug-addr mux.
func storezHandler(st *store.Store) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stats, err := st.Stats()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := struct {
			Stats    store.Stats    `json:"stats"`
			Manifest store.Manifest `json:"manifest"`
		}{stats, st.Manifest()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// The status line is already on the wire; an encode failure here
		// means the client hung up, and there is no channel left to tell it.
		_ = enc.Encode(resp)
	})
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fedsc-serve: "+format+"\n", args...)
	os.Exit(1)
}
