package params

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestDefaultMatchesTable5(t *testing.T) {
	p := Default()
	if p.Servers != 5 || p.ClientsPerServer != 20 || p.WorkersPerServer != 20 {
		t.Fatalf("cluster shape wrong: %+v", p)
	}
	if p.NVMReadLat != 140 || p.NVMWriteLat != 400 {
		t.Fatalf("NVM latencies wrong: rd=%d wr=%d", p.NVMReadLat, p.NVMWriteLat)
	}
	if p.DRAMLatency != 100 {
		t.Fatalf("DRAM latency = %d, want 100", p.DRAMLatency)
	}
	if p.NetRoundTrip != 1000 || p.NetBandwidth != 200_000_000_000 || p.QueuePairs != 400 {
		t.Fatalf("network params wrong: %+v", p)
	}
	if p.NVMChannels != 2 || p.NVMBanks != 8 {
		t.Fatalf("memory geometry wrong: %+v", p)
	}
	if p.XactionSize != 5 || p.ScopeSize != 10 {
		t.Fatalf("xaction/scope sizes wrong: %d/%d", p.XactionSize, p.ScopeSize)
	}
}

func TestClientsAndOneWay(t *testing.T) {
	p := Default()
	if p.Clients() != 100 {
		t.Fatalf("clients = %d, want 100", p.Clients())
	}
	if p.OneWayNet() != 500 {
		t.Fatalf("one-way = %d, want 500", p.OneWayNet())
	}
}

func TestValidateCatchesBadValues(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
		want   string
	}{
		{"servers", func(p *Params) { p.Servers = 0 }, "Servers"},
		{"clients", func(p *Params) { p.ClientsPerServer = 0 }, "ClientsPerServer"},
		{"workers", func(p *Params) { p.WorkersPerServer = -1 }, "WorkersPerServer"},
		{"keys", func(p *Params) { p.Keys = 0 }, "Keys"},
		{"nvm", func(p *Params) { p.NVMBanks = 0 }, "NVM"},
		{"netrt", func(p *Params) { p.NetRoundTrip = -1 }, "NetRoundTrip"},
		{"bw", func(p *Params) { p.NetBandwidth = 0 }, "NetBandwidth"},
		{"zipf", func(p *Params) { p.ZipfTheta = 1.0 }, "ZipfTheta"},
		{"xact", func(p *Params) { p.XactionSize = 0 }, "XactionSize"},
		{"scope", func(p *Params) { p.ScopeSize = 0 }, "ScopeSize"},
		{"value", func(p *Params) { p.ValueSize = 0 }, "ValueSize"},
		{"compute", func(p *Params) { p.RequestCompute = -1 }, "RequestCompute must"},
		{"handle", func(p *Params) { p.MessageHandle = -1 }, "MessageHandle must"},
		{"evlag", func(p *Params) { p.EventualLag = -1 }, "EventualLag must"},
		{"lazy", func(p *Params) { p.LazyPersist = -1 }, "LazyPersist must"},
		{"backoff", func(p *Params) { p.RetryBackoff = -1 }, "RetryBackoff must"},
		{"header", func(p *Params) { p.MsgHeaderSize = -1 }, "MsgHeaderSize must"},
		{"l1", func(p *Params) { p.L1Latency = -1 }, "L1Latency must"},
		{"l2", func(p *Params) { p.L2Latency = -1 }, "L2Latency must"},
		{"llc", func(p *Params) { p.LLCLatency = -1 }, "LLCLatency must"},
		{"dram", func(p *Params) { p.DRAMLatency = -1 }, "DRAMLatency must"},
	}
	for _, tc := range cases {
		p := Default()
		tc.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// A cost of zero is free, not invalid.
	p := Default()
	p.RequestCompute, p.MessageHandle, p.EventualLag = 0, 0, 0
	p.LazyPersist, p.RetryBackoff, p.MsgHeaderSize = 0, 0, 0
	p.L1Latency, p.L2Latency, p.LLCLatency, p.DRAMLatency = 0, 0, 0, 0
	if err := p.Validate(); err != nil {
		t.Fatalf("zero costs rejected: %v", err)
	}
}

func TestStringMentionsShape(t *testing.T) {
	s := Default().String()
	for _, frag := range []string{"5 servers", "20 clients", "netRT=1000ns"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}
