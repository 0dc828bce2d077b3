// Command waybacksensor is one node of the distributed capture fleet: it
// runs the full local pipeline — tail rotating pcap segments, reassemble TCP
// sessions, match them against the dated IDS ruleset — over its shard of the
// telescope address space, and ships the attributed events upstream to a
// waybackd coordinator over the fleet wire protocol.
//
// Matched events are spooled durably before they are sent, so a dead
// coordinator (or a sensor restart) loses nothing: delivery resumes from the
// coordinator's acked watermark with exactly-once ingest on the far side.
// The exactly-once guarantee covers wire-level redelivery and clean
// shutdowns; a hard sensor crash (kill -9, power loss) re-captures the
// window since the last ingest checkpoint — written at every idle flush —
// and re-ships those events under fresh sequence numbers the coordinator
// cannot recognize as duplicates.
//
// Usage:
//
//	waybacksensor -watch capture/ -state state/ -coordinator host:8417
//	              [-id sensor-0] [-shard 0 -shards 1] [-seed 1]
//	              [-codec snappy] [-window 8] [-heartbeat 1s]
//	              [-prefix dscope] [-poll 100ms] [-flush-idle 2s]
//	              [-batch 256] [-workers 0]
//	              [-rules-dir rules/] [-rules-reload 5s]
//
// With -rules-dir the sensor hot-reloads its matcher from a versioned
// ruleset registry: publications appended to the journal (waybackctl rules
// publish -dir) swap the compiled engine between batches without dropping a
// session. Digest recording and retroactive rescans stay with the
// coordinator, which owns the event store.
//
// Shutdown (SIGINT/SIGTERM) drains the capture already on disk through
// matching into the spool, then waits briefly for the coordinator to ack;
// anything still unacked stays spooled for the next start.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/ids"
	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/tcpasm"
	"repro/wayback"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "waybacksensor:", err)
		os.Exit(1)
	}
}

// sensor holds the wired components; split from run so tests can drive the
// exact production wiring in-process.
type sensor struct {
	pipeline *ingest.Pipeline
	shipper  *fleet.Shipper
	registry *registry.Registry // nil without -rules-dir

	rulesStop chan struct{}
	rulesDone chan struct{}
}

type sensorConfig struct {
	watchDir    string
	stateDir    string
	coordinator string
	id          string
	shard       int
	shards      int
	seed        int64
	codec       string
	window      int
	heartbeat   time.Duration
	prefix      string
	poll        time.Duration
	flushIdle   time.Duration
	batch       int
	workers     int
	reasmShards int           // flow-sharded reassembly width; 0 = default
	rulesDir    string        // versioned ruleset registry directory; empty = off
	rulesReload time.Duration // journal poll interval; 0 = 5s

	// test knobs
	backoffMin     time.Duration
	backoffMax     time.Duration
	enforceShardOf bool
}

func openSensor(cfg sensorConfig) (*sensor, error) {
	codec, err := fleet.ParseCodec(cfg.codec)
	if err != nil {
		return nil, err
	}
	study, err := wayback.NewStudy(wayback.Config{Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	// Heartbeats report local backlog so the coordinator's /v1/fleet shows
	// lag even while the wire is idle. The pipeline is wired after the
	// shipper, so the holder is an atomic pointer: heartbeat reads race a
	// startup write.
	var lagSrc atomic.Pointer[ingest.Pipeline]
	shipper, err := fleet.StartShipper(fleet.ShipperConfig{
		Addr:           cfg.coordinator,
		SensorID:       cfg.id,
		Shard:          cfg.shard,
		Shards:         cfg.shards,
		StateDir:       cfg.stateDir,
		Codec:          codec,
		Window:         cfg.window,
		HeartbeatEvery: cfg.heartbeat,
		BackoffMin:     cfg.backoffMin,
		BackoffMax:     cfg.backoffMax,
		Lag: func() int64 {
			if p := lagSrc.Load(); p != nil {
				return p.Metrics().Lag()
			}
			return 0
		},
	})
	if err != nil {
		return nil, err
	}
	var sink ingest.Sink = shipper
	if cfg.enforceShardOf && cfg.shards > 1 {
		sink = &shardSink{inner: shipper, shard: cfg.shard, shards: cfg.shards}
	}
	var reg *registry.Registry
	if cfg.rulesDir != "" {
		reg, err = registry.Open(registry.Config{
			Dir:    cfg.rulesDir,
			Base:   study.DatedRuleset(),
			Engine: study.EngineConfig(),
		})
		if err != nil {
			shipper.Close()
			return nil, err
		}
	}
	icfg := ingest.Config{
		Dir:           cfg.watchDir,
		Prefix:        cfg.prefix,
		Engine:        study.Engine(),
		Sink:          sink,
		CheckpointDir: cfg.stateDir,
		PollInterval:  cfg.poll,
		FlushIdle:     cfg.flushIdle,
		BatchSessions: cfg.batch,
		MatchWorkers:  cfg.workers,
		Assembler:     tcpasm.Config{Shards: cfg.reasmShards},
	}
	if reg != nil {
		// Hot reload only: the sensor matches with the registry's live
		// engine, while digests and retroactive rescans stay with the
		// coordinator that owns the event store.
		icfg.EngineSource = reg.Engine
	}
	pipeline, err := ingest.Start(icfg)
	if err != nil {
		if reg != nil {
			reg.Close()
		}
		shipper.Close()
		return nil, err
	}
	lagSrc.Store(pipeline)
	s := &sensor{pipeline: pipeline, shipper: shipper, registry: reg}
	if reg != nil {
		interval := cfg.rulesReload
		if interval <= 0 {
			interval = 5 * time.Second
		}
		s.rulesStop = make(chan struct{})
		s.rulesDone = make(chan struct{})
		go func() {
			defer close(s.rulesDone)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.rulesStop:
					return
				case <-t.C:
					if _, err := reg.Refresh(); err != nil {
						fmt.Fprintln(os.Stderr, "waybacksensor: ruleset:", err)
					}
				}
			}
		}()
	}
	return s, nil
}

// shardSink drops events that belong to another sensor's address-space
// shard, so a fleet can even tail one shared (unsharded) capture and still
// partition it cleanly: every event reaches the coordinator exactly once,
// from exactly one sensor.
type shardSink struct {
	inner  ingest.Sink
	shard  int
	shards int
}

func (s *shardSink) AppendBatch(events []ids.Event) error {
	// A fresh slice, not events[:0]: filtering in place would rearrange the
	// caller's batch while the shipper's spool holds the kept events past
	// this call — correctness must not hinge on the caller never touching
	// its slice again.
	kept := make([]ids.Event, 0, len(events))
	for i := range events {
		if fleet.ShardOf(events[i].Dst.Addr, s.shards) == s.shard {
			kept = append(kept, events[i])
		}
	}
	return s.inner.AppendBatch(kept)
}

// close drains capture into the spool, gives the shipper drainWait to flush
// acks, then shuts down. Unacked batches stay spooled.
func (s *sensor) close(drainWait time.Duration) error {
	if s.rulesStop != nil {
		close(s.rulesStop)
		<-s.rulesDone
	}
	err := s.pipeline.Close()
	if s.registry != nil {
		if rerr := s.registry.Close(); err == nil {
			err = rerr
		}
	}
	if drainWait > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), drainWait)
		s.shipper.WaitDrained(ctx)
		cancel()
	}
	if serr := s.shipper.Close(); err == nil {
		err = serr
	}
	return err
}

func run(args []string) error {
	fs := flag.NewFlagSet("waybacksensor", flag.ContinueOnError)
	watch := fs.String("watch", "", "directory of rotating pcap segments to tail (required)")
	state := fs.String("state", "", "sensor state directory: spool + ingest checkpoint (required)")
	coordinator := fs.String("coordinator", "", "coordinator fleet address host:port (required)")
	id := fs.String("id", "", "stable sensor id (required; keys the coordinator watermark)")
	shard := fs.Int("shard", 0, "this sensor's address-space shard index")
	shards := fs.Int("shards", 1, "total shards in the fleet")
	seed := fs.Int64("seed", 1, "study seed (selects the ruleset)")
	codec := fs.String("codec", "snappy", "batch compression: snappy, deflate, raw")
	window := fs.Int("window", 8, "max unacked batches in flight")
	heartbeat := fs.Duration("heartbeat", time.Second, "heartbeat interval while idle")
	prefix := fs.String("prefix", "dscope", "segment filename prefix")
	poll := fs.Duration("poll", 100*time.Millisecond, "tail poll interval")
	flushIdle := fs.Duration("flush-idle", 2*time.Second, "flush open connections after this much capture silence")
	batch := fs.Int("batch", 256, "sessions per match batch")
	workers := fs.Int("workers", 0, "match workers (0 = GOMAXPROCS)")
	fs.IntVar(workers, "match-workers", 0, "alias of -workers")
	reasmShards := fs.Int("reasm-shards", 0, "flow-sharded reassembly width (0 = min(8, GOMAXPROCS))")
	rulesDir := fs.String("rules-dir", "", "versioned ruleset registry directory to hot-reload from; empty = off")
	rulesReload := fs.Duration("rules-reload", 5*time.Second, "ruleset journal poll interval")
	filter := fs.Bool("shard-filter", true, "drop events outside this sensor's shard (lets sensors share one capture)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *watch == "" || *state == "" || *coordinator == "" || *id == "" {
		return errors.New("-watch, -state, -coordinator and -id are required")
	}
	if *shards < 1 || *shard < 0 || *shard >= *shards {
		return fmt.Errorf("-shard %d out of range of -shards %d", *shard, *shards)
	}

	s, err := openSensor(sensorConfig{
		watchDir: *watch, stateDir: *state, coordinator: *coordinator,
		id: *id, shard: *shard, shards: *shards, seed: *seed,
		codec: *codec, window: *window, heartbeat: *heartbeat,
		prefix: *prefix, poll: *poll, flushIdle: *flushIdle,
		batch: *batch, workers: *workers, reasmShards: *reasmShards,
		rulesDir: *rulesDir, rulesReload: *rulesReload,
		enforceShardOf: *filter,
	})
	if err != nil {
		return err
	}
	fmt.Printf("waybacksensor %s: shard %d/%d, tailing %s, shipping to %s\n",
		*id, *shard, *shards, *watch, *coordinator)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("waybacksensor: draining")
	err = s.close(10 * time.Second)
	m := s.pipeline.Metrics()
	sm := s.shipper.Metrics()
	fmt.Printf("waybacksensor: drained (%d packets, %d sessions, %d events; %d batches spooled, acked through %d)\n",
		m.Packets, m.Sessions, m.Events, sm.Spooled, sm.AckedSeq)
	return err
}
