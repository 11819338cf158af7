// Serve: stand up the CloudWalker query daemon in-process and exercise
// every endpoint — the online half of the paper made concrete. A graph
// and index are built on the fly (in production you would load artifacts
// produced by `cloudwalker gen` / `cloudwalker index`), then an HTTP
// client plays the role of curl against /pair, /pairs, /source,
// /healthz, and /stats, showing the result cache turning repeat queries
// into sub-millisecond hits.
//
// Run with: go run ./examples/serve
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"cloudwalker"
)

func main() {
	// A power-law graph standing in for a web/social dataset.
	g, err := cloudwalker.GenerateRMAT(3000, 36000, 7)
	if err != nil {
		log.Fatal(err)
	}
	opts := cloudwalker.DefaultOptions()
	opts.RPrime = 2000 // trimmed from the paper's 10000 to keep the demo snappy
	idx, _, err := cloudwalker.BuildIndex(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	q, err := cloudwalker.NewQuerier(g, idx)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := cloudwalker.NewServer(q, cloudwalker.ServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon up at %s (%d nodes, %d edges)\n\n", base, g.NumNodes(), g.NumEdges())

	get := func(path string) {
		start := time.Now()
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("GET %-34s [%v]\n  %s\n", path, time.Since(start).Round(time.Microsecond), bytes.TrimSpace(body))
	}

	// Single pair: the first call runs the Monte Carlo estimate, the
	// second is a cache hit — same score, a fraction of the latency.
	get("/pair?i=10&j=11")
	get("/pair?j=10&i=11") // symmetric order, same cache entry

	// Batched pairs in one round trip.
	start := time.Now()
	resp, err := http.Post(base+"/pairs", "application/json",
		bytes.NewBufferString(`{"pairs":[[10,11],[5,200],[3,3]]}`))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST %-33s [%v]\n  %s\n", "/pairs", time.Since(start).Round(time.Microsecond), bytes.TrimSpace(body))

	// Single source (MCSS), then its cache hit.
	get("/source?node=10&k=5")
	get("/source?node=10&k=5")

	// Operational endpoints.
	get("/healthz")
	get("/stats")
}
