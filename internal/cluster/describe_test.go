package cluster

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
)

// TestDescribeMessagesMatchTraffic runs every binding on the small 3x4 cell
// and holds core.Describe's message list to the kinds the protocol put on the
// wire: every kind sent must be listed, and every kind listed must be sent,
// except the two a transactional conflict sends (NACK, ABORTX), which a run
// need not hit.
func TestDescribeMessagesMatchTraffic(t *testing.T) {
	for _, m := range core.AllModels() {
		cfg := smallConfig(m)
		cfg.WarmupNs = 100_000
		cfg.MeasureNs = 400_000
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.RunTo(cfg.WarmupNs + cfg.MeasureNs)

		sent := map[string]bool{}
		for k := protocol.MsgINV; k <= protocol.MsgABORTX; k++ {
			if c.Net.MessagesOfKind(int(k)) > 0 {
				sent[k.String()] = true
			}
		}
		listed := map[string]bool{}
		for _, msg := range core.Describe(m).Messages {
			listed[normalizeMessage(msg)] = true
		}
		for k := range sent {
			if !listed[k] {
				t.Errorf("%s sends %s, which Describe does not list (sent %v, listed %v)", m, k, keys(sent), keys(listed))
			}
		}
		for k := range listed {
			if !sent[k] && k != "NACK" && k != "ABORTX" {
				t.Errorf("%s lists %s, which the run never sent (sent %v, listed %v)", m, k, keys(sent), keys(listed))
			}
		}
	}
}

// normalizeMessage strips Describe's decorations: "INV(+data)" is INV,
// "UPD(+cauhist)" is UPD and "[PERSIST]s" is PERSIST.
func normalizeMessage(s string) string {
	if i := strings.IndexByte(s, '('); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSuffix(strings.TrimPrefix(s, "["), "]s")
}

func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
