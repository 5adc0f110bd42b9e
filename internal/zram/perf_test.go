package zram

import (
	"testing"

	"github.com/eurosys23/ice/internal/obs"
)

// BenchmarkZramStoreLoad measures the partition's per-page cost for each
// codec preset: one op stores a page and refaults it (Store, Load), then
// stores another and frees it on exit (Store, Drop). The partition is
// instrumented, as in a simulated device, and half full, so the
// occupancy gauges and footprint rounding run on realistic values.
func BenchmarkZramStoreLoad(b *testing.B) {
	for _, name := range PresetNames() {
		b.Run(name, func(b *testing.B) {
			codec, err := Preset(name)
			if err != nil {
				b.Fatal(err)
			}
			z := New(codec.Apply(DefaultConfig(1024)))
			z.Instrument(obs.NewRegistry())
			for i := 0; i < 512; i++ {
				z.Store(PageInfo{Java: i%2 == 0})
			}
			java, native := PageInfo{Java: true}, PageInfo{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, ref, _ := z.Store(java)
				z.Load(ref, java)
				_, ref, _ = z.Store(native)
				z.Drop(ref, native)
			}
			if z.Stored() != 512 {
				b.Fatalf("partition holds %d pages after the run, want 512", z.Stored())
			}
		})
	}
}
