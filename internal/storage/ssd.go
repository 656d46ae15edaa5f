package storage

// SSDConfig parametrizes the flash solid-state drive model.
type SSDConfig struct {
	// CapacityBytes is the usable capacity.
	CapacityBytes int64
	// ReadLatency and WriteLatency are fixed per-request costs.
	ReadLatency  float64
	WriteLatency float64
	// ReadRate and WriteRate are the streaming transfer rates in bytes/s.
	ReadRate  float64
	WriteRate float64
}

// SSD32Config returns parameters modelled on the paper's 32 GB SATA-II SSD
// (2008-era): fast flat random reads, slower writes, and streaming rates
// competitive with — but not far above — a 15K disk, so large sequential
// scans do not automatically belong on flash.
func SSD32Config() SSDConfig {
	return SSDConfig{
		CapacityBytes: 32 << 30,
		ReadLatency:   0.18e-3,
		WriteLatency:  0.40e-3,
		ReadRate:      150 << 20,
		WriteRate:     85 << 20,
	}
}

// SSD is a flash solid-state drive. Access cost is position-independent:
// there is no seek and no rotational latency, so random and sequential
// requests cost the same and interference between streams has no positioning
// penalty (queueing delay is still modelled by the shared queue skeleton).
type SSD struct {
	queueDevice
	cfg SSDConfig
}

// NewSSD attaches a new SSD with the given configuration to the engine.
func NewSSD(e *Engine, name string, cfg SSDConfig) *SSD {
	s := &SSD{cfg: cfg}
	s.queueDevice.attach(e, name, cfg.CapacityBytes, s.serviceTime)
	e.register(s)
	return s
}

// Config returns the SSD's configuration.
func (s *SSD) Config() SSDConfig { return s.cfg }

// WithCapacity returns a copy of the configuration with a different capacity,
// used by the paper's SSD capacity sweep (Fig. 18).
func (c SSDConfig) WithCapacity(bytes int64) SSDConfig {
	c.CapacityBytes = bytes
	return c
}

func (s *SSD) serviceTime(r *Request, queueDepth int) float64 {
	if r.Write {
		return s.cfg.WriteLatency + float64(r.Size)/s.cfg.WriteRate
	}
	return s.cfg.ReadLatency + float64(r.Size)/s.cfg.ReadRate
}
