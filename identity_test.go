package hls_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/gen"
)

// netlistPins are SHA-256 values over each paper graph's emitted netlist
// followed by its Table 2 cost breakdown, for both datapath styles at
// every time constraint from the critical path to three steps above it.
// They pin the bytes the mux-list optimizer, the controller and the
// emitter produce, so a rewrite of any of them that changes a netlist or
// a cost fails here by name.
var netlistPins = map[string]string{
	"facet/style1/cs4":       "8999fcde52eefdee8f7f73d9403044b5f44df77d24d42249ff8e3a244ff12412",
	"facet/style1/cs5":       "b0585593ef885d55b827a0bdc32e702c205df96fef4c2ebda839d4e1fdd947e6",
	"facet/style1/cs6":       "01193cffd742b0e7fcc3e765530701fc2b51e3b2e0b3bb9f5f084706c8dfd4ef",
	"facet/style1/cs7":       "b44039a344bca451c0eb05020a4a65a747971983f189c8e57f131b05121ee2e3",
	"facet/style2/cs4":       "8999fcde52eefdee8f7f73d9403044b5f44df77d24d42249ff8e3a244ff12412",
	"facet/style2/cs5":       "b0585593ef885d55b827a0bdc32e702c205df96fef4c2ebda839d4e1fdd947e6",
	"facet/style2/cs6":       "01193cffd742b0e7fcc3e765530701fc2b51e3b2e0b3bb9f5f084706c8dfd4ef",
	"facet/style2/cs7":       "b44039a344bca451c0eb05020a4a65a747971983f189c8e57f131b05121ee2e3",
	"chained/style1/cs8":     "e9ace75793a53ac9aa8d58c0aa5c2fcc5dbf9f87aa4945ea67a8fdf22d394198",
	"chained/style1/cs9":     "76b2c41dfd10efa556e8d233c86ab972d66e77332cf34cfd7505cd8a6f7d398d",
	"chained/style1/cs10":    "9bceee0c67fd99e00c56fbcf9b93db414640f666f5c25ccd126e215f26a7b14f",
	"chained/style1/cs11":    "69e93a1f7b6253f8a9c316da024f69d5e5b9d4f4ea0ff1b03425617d08bef910",
	"chained/style2/cs8":     "e9ace75793a53ac9aa8d58c0aa5c2fcc5dbf9f87aa4945ea67a8fdf22d394198",
	"chained/style2/cs9":     "76b2c41dfd10efa556e8d233c86ab972d66e77332cf34cfd7505cd8a6f7d398d",
	"chained/style2/cs10":    "9bceee0c67fd99e00c56fbcf9b93db414640f666f5c25ccd126e215f26a7b14f",
	"chained/style2/cs11":    "69e93a1f7b6253f8a9c316da024f69d5e5b9d4f4ea0ff1b03425617d08bef910",
	"diffeq/style1/cs4":      "216ee60d28fcfbd644af348856ce586afacbc828967614e4e0ca7048c94ff0d1",
	"diffeq/style1/cs5":      "b7d2a44c797ee22e273405265ad8d9ce74dcff0b231cc08e2865689a1eac8403",
	"diffeq/style1/cs6":      "677795b23960069a3a8786a75ce6e0787ef16b403af3fe9e70bc54c65fd51c00",
	"diffeq/style1/cs7":      "dee16f54cc9981d0523bdcb61e42a90b29da1fe42cbcabe42fcbec0b80d9dd84",
	"diffeq/style2/cs4":      "b70b53edbd00b51ae5b39380ef915a08ecd28fd4fe59960a25f7de3d8d5af6df",
	"diffeq/style2/cs5":      "be95139143b7e08768354958afcecf38278131b1cb59d2e2767286714b861cfd",
	"diffeq/style2/cs6":      "6a52fd8f893c461543781434f2c175638b564e728e07513d507dc4bc9702bd60",
	"diffeq/style2/cs7":      "cd1b189952684c63fbca7cf1cde14e3fc6cea44543286958678b2773aba9e3be",
	"ar-lattice/style1/cs8":  "262f01e0f782fd04fe5213bf4d5b73dc4b9498db2e8ed9bc3f21a4e48db6790a",
	"ar-lattice/style1/cs9":  "409490e03e3dc976fb3e3ee2d656f2d36a36403c1b1ad39db39a4f74e06742b3",
	"ar-lattice/style1/cs10": "185b1548a92484827c4b33ba423e67400147b152439d3c45960becb839e10ab6",
	"ar-lattice/style1/cs11": "191e4ed9eaee2959253d0f60001beb693a380ceb4cf68a4731197ea9ad72f91a",
	"ar-lattice/style2/cs8":  "644842b5cc4f612bc6fbd2a1bb774e8126eb77b858f9bf07131954cdecad0c11",
	"ar-lattice/style2/cs9":  "42335c461071024c4e2e57168b16d57a0837cb5197845dfae464d1ebd5109250",
	"ar-lattice/style2/cs10": "6deb6923bc7caecaf8b8a1afbfe4004bd05fade08fccd7a2c177171b6334f89b",
	"ar-lattice/style2/cs11": "e84a1ea1a501522d625cbfb2bc956e39c644fd3b4fb11a6edfb4804bef55972d",
	"bandpass/style1/cs6":    "5fc98e854c10015e8634ea5886593519110ff3b238d94aa886a311a79d86e66b",
	"bandpass/style1/cs7":    "8b3e2acb02fe49c5dae70d960fa041a466c53576ca5a87df6726acc528c43018",
	"bandpass/style1/cs8":    "fe21aa857cccb8754313ed612acc568d6dcc30de5db4e6fdec3a1c43e453f4d4",
	"bandpass/style1/cs9":    "228b69d7d49b4e5812c856726f10618904e3e232b724d05e451829c77200d3af",
	"bandpass/style2/cs6":    "3c846b7028a3746b5d5693ec037deab7f99c5d90c233ffa77fd01867ed5c8571",
	"bandpass/style2/cs7":    "fcadf85773b8f2a5b77b386e46a285baf5b03a505015f6336751356124eee1dc",
	"bandpass/style2/cs8":    "4c93cbde76454efa360f8d900666468b18edc79f44b78d2b29df179a8f4d8189",
	"bandpass/style2/cs9":    "e9e9cbb53fd8ae422546bfd360449b0b3e529b6d41957647113b20b6f8bbeecd",
	"ewf/style1/cs17":        "92f5ad647d95fc5bd2732211d47666180050f591e7aa96860436f6831ccac446",
	"ewf/style1/cs18":        "1cee20da8a8c615e30a65aac0fddcdd4acf31ce6864f2f68ebdbc54b0478edca",
	"ewf/style1/cs19":        "505c13c3704ef039044a2621e3634e96f41dbea10fb5a6180d37ccf6c934ff31",
	"ewf/style1/cs20":        "62bb9399af30ac971f04080045b5fb6c33c939917656e8654510afd506392b25",
	"ewf/style2/cs17":        "0270283f0591accba1b93e8138b0a6c1c294c79927be7fae0901965c47d2bee7",
	"ewf/style2/cs18":        "3fab4e8fbe7817d091ec84500d8450ae219c64eecb2e901d5864897e7ac840e1",
	"ewf/style2/cs19":        "53f7375ba0358d6bb60777fe4a9cfb3289564e730a8f5d98fc41c09daf065db1",
	"ewf/style2/cs20":        "2295cd89e954f2d2bfcbab337687977225e06e8de503f9dccd39bbe48fbf95d3",
}

func TestNetlistGoldenPins(t *testing.T) {
	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for style := 1; style <= 2; style++ {
			for cs := cp; cs <= cp+3; cs++ {
				key := fmt.Sprintf("%s/style%d/cs%d", ex.Name, style, cs)
				d, err := hls.Synthesize(ex.Graph, hls.Config{CS: cs, Style: style, ClockNs: ex.ClockNs})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				net, err := d.Netlist()
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%+v", net, d.Cost)))
				if got := hex.EncodeToString(sum[:]); got != netlistPins[key] {
					t.Errorf("%q: %q, // pinned %q", key, got, netlistPins[key])
				}
			}
		}
	}
}

// scalePins are SHA-256 values over the emitted netlist and cost of two
// generated 2k-node designs at cp+4 under the default Config: netlists
// of 300–500 KB that name thousands of signals and 100–800 registers,
// a scale the paper pins never reach.
var scalePins = map[string]string{
	"gen2000/seed1/mul2": "015f2fb0877f12e5a87fed295cb1aed281bbf609572a57e7aaafebdd1aa7aeb9",
	"fir1024/mul2":       "ae06dc069e1a4dfd0d8a6d04791fdf0b06bc57fefe52a3482fac3558e38fe7fd",
}

func TestNetlistScalePins(t *testing.T) {
	rand, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fir, err := gen.FIR(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	for key, g := range map[string]*dfg.Graph{"gen2000/seed1/mul2": rand, "fir1024/mul2": fir} {
		d, err := hls.Synthesize(g, hls.Config{CS: g.CriticalPathCycles() + 4})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		net, err := d.Netlist()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s\n%+v", net, d.Cost)))
		if got := hex.EncodeToString(sum[:]); got != scalePins[key] {
			t.Errorf("%q: %q, // pinned %q", key, got, scalePins[key])
		}
	}
}
