package storage

import "fmt"

// DiskConfig parametrizes the mechanical disk model.
type DiskConfig struct {
	// CapacityBytes is the usable capacity.
	CapacityBytes int64
	// AvgSeek is the average random seek time in seconds.
	AvgSeek float64
	// MinSeek is the floor on the scheduled seek time in seconds.
	MinSeek float64
	// HalfRotation is the average rotational latency (half a revolution).
	HalfRotation float64
	// TransferRate is the media streaming rate in bytes/second.
	TransferRate float64
	// SeqOverhead is the fixed per-request cost on the sequential fast
	// path (command processing, cache-hit service).
	SeqOverhead float64
	// WriteSettle is the extra per-request cost of a non-sequential write.
	WriteSettle float64
	// SchedGain controls how quickly scheduling (elevator / C-LOOK)
	// shortens seeks as the queue grows: effective seek falls as
	// 1/(1+SchedGain*queueDepth) toward MinSeek.
	SchedGain float64
	// RASegments is the number of cache segments the drive's read-ahead
	// logic maintains: it can keep this many concurrently interleaved
	// streams on the fast path. With 2 segments, the sequential advantage
	// survives one temporally-correlated competitor and collapses when
	// the contention factor reaches 2 — the paper's Fig. 8 behaviour.
	RASegments int
	// RAWindow is the number of bytes the drive prefetches when it
	// (re)positions onto a tracked stream; interleaved streams pay one
	// positioning per window rather than per request.
	RAWindow int64
	// StreamTableSize bounds the per-drive stream tracking table (LRU).
	StreamTableSize int
}

// Disk15KConfig returns parameters modelled on the paper's 18.4 GB 15K RPM
// SCSI drives: ~3.5 ms average seek, 2 ms average rotational latency
// (15,000 RPM = 4 ms/rev), and ~72 MB/s streaming transfer.
func Disk15KConfig() DiskConfig {
	return DiskConfig{
		CapacityBytes:   18<<30 + 410<<20, // 18.4 GB
		AvgSeek:         3.5e-3,
		MinSeek:         0.5e-3,
		HalfRotation:    2.0e-3,
		TransferRate:    72 << 20,
		SeqOverhead:     0.10e-3,
		WriteSettle:     0.25e-3,
		SchedGain:       0.30,
		RASegments:      2,
		RAWindow:        64 << 10,
		StreamTableSize: 64,
	}
}

// Disk7200Config returns parameters modelled on a cost-effective nearline
// 7200 RPM SATA drive: slower positioning, comparable streaming rate. Used
// by the heterogeneity examples.
func Disk7200Config() DiskConfig {
	return DiskConfig{
		CapacityBytes:   250 << 30,
		AvgSeek:         8.0e-3,
		MinSeek:         1.0e-3,
		HalfRotation:    4.16e-3,
		TransferRate:    64 << 20,
		SeqOverhead:     0.12e-3,
		WriteSettle:     0.30e-3,
		SchedGain:       0.30,
		RASegments:      2,
		RAWindow:        64 << 10,
		StreamTableSize: 64,
	}
}

// streamEntry tracks one stream's sequential state on a drive.
type streamEntry struct {
	stream   uint64
	nextOff  int64 // offset the stream's next sequential request would have
	lastTick int64 // drive request counter at the stream's last access
	graceEnd int64 // end of the currently prefetched read-ahead window
}

// Disk is a single mechanical disk drive.
//
// The service-time model distinguishes three regimes for contiguous
// (stream-continuing) requests, governed by the drive's segmented read-ahead
// cache:
//
//   - undisturbed streaming: no foreign request intervened — media-rate
//     transfer plus fixed overhead;
//   - tracked interleave: the stream still owns a cache segment (at most
//     RASegments streams interleave). Requests inside the prefetched window
//     are cache hits; on window exhaustion the drive repositions once and
//     prefetches the next RAWindow bytes, so the positioning cost is
//     amortized over the window;
//   - evicted: more than RASegments streams interleave, the segment is
//     recycled before the stream returns, and every request pays full
//     positioning — the Fig. 8 interference collapse.
//
// Non-contiguous requests always pay positioning (seek + rotational
// latency + transfer), with scheduling gains shortening seeks as the queue
// deepens (the gently decreasing random-request cost in Fig. 8).
type Disk struct {
	queueDevice
	cfg     DiskConfig
	tick    int64 // request counter, advances on every serviced request
	streams []streamEntry
	// segments is the LRU list of stream ids currently owning a
	// read-ahead cache segment (most recent first).
	segments []uint64
}

// NewDisk attaches a new disk with the given configuration to the engine.
func NewDisk(e *Engine, name string, cfg DiskConfig) *Disk {
	if cfg.TransferRate <= 0 {
		panic(fmt.Sprintf("storage: disk %q: non-positive transfer rate", name))
	}
	d := &Disk{cfg: cfg}
	d.queueDevice.attach(e, name, cfg.CapacityBytes, d.serviceTime)
	e.register(d)
	return d
}

// Config returns the disk's configuration.
func (d *Disk) Config() DiskConfig { return d.cfg }

// lookupStream finds the tracking entry for a stream, or nil.
func (d *Disk) lookupStream(id uint64) *streamEntry {
	for i := range d.streams {
		if d.streams[i].stream == id {
			return &d.streams[i]
		}
	}
	return nil
}

// noteStream records the stream's position after servicing a request.
func (d *Disk) noteStream(id uint64, nextOff, graceEnd int64) {
	if e := d.lookupStream(id); e != nil {
		e.nextOff = nextOff
		e.lastTick = d.tick
		e.graceEnd = graceEnd
		return
	}
	ent := streamEntry{stream: id, nextOff: nextOff, lastTick: d.tick, graceEnd: graceEnd}
	if len(d.streams) >= d.cfg.StreamTableSize && d.cfg.StreamTableSize > 0 {
		lru := 0
		for i := range d.streams {
			if d.streams[i].lastTick < d.streams[lru].lastTick {
				lru = i
			}
		}
		d.streams[lru] = ent
		return
	}
	d.streams = append(d.streams, ent)
}

// touchSegment marks the stream as owning a cache segment and reports
// whether it already owned one.
func (d *Disk) touchSegment(id uint64) bool {
	for i, s := range d.segments {
		if s == id {
			copy(d.segments[1:i+1], d.segments[:i])
			d.segments[0] = id
			return true
		}
	}
	n := d.cfg.RASegments
	if n < 1 {
		n = 1
	}
	if len(d.segments) >= n {
		// Recycling the LRU segment: its stream loses the fast path.
		d.segments = d.segments[:n]
		d.stats.RAEvictions++
	} else {
		d.segments = append(d.segments, 0)
	}
	copy(d.segments[1:], d.segments)
	d.segments[0] = id
	return false
}

// positioning returns the seek + rotation cost at the given queue depth.
func (d *Disk) positioning(queueDepth int) float64 {
	seek := d.cfg.MinSeek + (d.cfg.AvgSeek-d.cfg.MinSeek)/(1+d.cfg.SchedGain*float64(queueDepth))
	return seek + d.cfg.HalfRotation
}

// serviceTime computes the time to service r given the current queue depth.
func (d *Disk) serviceTime(r *Request, queueDepth int) float64 {
	d.tick++
	transfer := float64(r.Size) / d.cfg.TransferRate

	e := d.lookupStream(r.Stream)
	contiguous := e != nil && e.nextOff == r.Offset
	cached := d.touchSegment(r.Stream)

	if contiguous && cached {
		undisturbed := d.tick-e.lastTick == 1
		switch {
		case undisturbed:
			// Pure streaming.
			d.stats.SeqHits++
			d.noteStream(r.Stream, r.Offset+r.Size, r.Offset+r.Size+d.cfg.RAWindow)
			return d.cfg.SeqOverhead + transfer
		case r.Offset+r.Size <= e.graceEnd:
			// Interleaved, but the data was fully prefetched into
			// the stream's cache segment on the last (re)position.
			d.stats.SeqHits++
			grace := e.graceEnd
			d.noteStream(r.Stream, r.Offset+r.Size, grace)
			return d.cfg.SeqOverhead + transfer
		default:
			// Window exhausted: reposition once and prefetch the
			// next window. Resuming a stream means travelling back
			// to its zone from wherever the interleaved streams
			// left the head — a full-cost reposition that queue
			// scheduling cannot shorten.
			d.noteStream(r.Stream, r.Offset+r.Size, r.Offset+r.Size+d.cfg.RAWindow)
			return d.cfg.AvgSeek + d.cfg.HalfRotation + transfer
		}
	}

	// Random access, a brand-new stream, or a stream whose cache segment
	// was recycled: full positioning.
	if contiguous && !cached {
		d.stats.RACollapses++
	}
	d.noteStream(r.Stream, r.Offset+r.Size, 0)
	st := d.positioning(queueDepth) + transfer
	if r.Write {
		st += d.cfg.WriteSettle
	}
	return st
}
