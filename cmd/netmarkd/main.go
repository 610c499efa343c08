// Command netmarkd runs a NETMARK server: the schema-less XML store, the
// HTTP/WebDAV access layer, the drop-folder ingestion daemon, and any
// databanks declared in spec files.
//
// Usage:
//
//	netmarkd -addr :8080 -dir ./data -drop ./drop \
//	         -bank pfm.json -bank anomaly.json \
//	         -stylesheet ibpd=ibpd.xsl
//
// -cache-bytes caps the query result cache.  The store's decoded-node
// cache has no flag: every store reads through one capped at 32 MiB.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netmark"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "storage directory (empty = in-memory)")
	drop := flag.String("drop", "", "drop folder watched by the ingestion daemon")
	poll := flag.Duration("poll", time.Second, "drop folder poll interval")
	cacheBytes := flag.Int64("cache-bytes", 0,
		"query result cache cap in bytes (0 = default 64 MiB, negative = disabled)")
	var banks stringList
	flag.Var(&banks, "bank", "databank spec JSON file (repeatable)")
	var sheets stringList
	flag.Var(&sheets, "stylesheet", "name=file stylesheet registration (repeatable)")
	flag.Parse()

	nm, err := netmark.Open(netmark.Config{
		Dir: *dir, DropDir: *drop, PollInterval: *poll,
		CacheBytes: *cacheBytes,
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	// Close flushes and syncs the WAL; a failure here means the final
	// writes may not be durable, which a durable-store CLI must not hide.
	defer func() {
		if err := nm.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
	}()

	for _, spec := range banks {
		data, err := os.ReadFile(spec)
		if err != nil {
			log.Fatalf("bank spec %s: %v", spec, err)
		}
		if _, err := nm.CreateDatabank(data); err != nil {
			log.Fatalf("bank spec %s: %v", spec, err)
		}
		log.Printf("databank loaded from %s", spec)
	}
	for _, s := range sheets {
		name, file, ok := strings.Cut(s, "=")
		if !ok {
			log.Fatalf("stylesheet flag needs name=file, got %q", s)
		}
		src, err := os.ReadFile(file)
		if err != nil {
			log.Fatalf("stylesheet %s: %v", file, err)
		}
		if err := nm.RegisterStylesheet(name, string(src)); err != nil {
			log.Fatalf("stylesheet %s: %v", file, err)
		}
		log.Printf("stylesheet %q loaded from %s", name, file)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("netmarkd listening on %s (store=%s drop=%s)", *addr, orMem(*dir), orNone(*drop))
	if err := nm.Serve(ctx, *addr); err != nil && ctx.Err() == nil {
		log.Fatalf("serve: %v", err)
	}
	fmt.Println("netmarkd: shut down cleanly")
}

func orMem(s string) string {
	if s == "" {
		return "(in-memory)"
	}
	return s
}

func orNone(s string) string {
	if s == "" {
		return "(disabled)"
	}
	return s
}
