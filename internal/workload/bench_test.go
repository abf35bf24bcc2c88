package workload

import "testing"

// BenchmarkGenerate times BuildSystem plus Generate on the end-to-end
// benchmark's two populations: s15 (15 hosts, 150 Zipf-1 base streams, 300
// queries) and s32 (large_state's 32 hosts, 1,200 uniform base streams, 800
// queries). Each benchmark set-up generates twice.
func BenchmarkGenerate(b *testing.B) {
	for _, sh := range pinnedShapes()[:2] {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Generate(BuildSystem(sh.sys), sh.cfg)
			}
		})
	}
}
