package lint_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/behav"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lint"
	"repro/internal/opt"
)

// lintPins are SHA-256 values over the JSON of a full lint.RunCtx
// result followed by the JSON of the lint.Certify certificate, for every
// unit of the corpus lintPinUnits builds: the paper graphs in both
// styles from the critical path to two steps above it, the behavioral
// designs, two generated graphs, the netlist corruptions, the
// registered mutations, and malformed netlist texts. They pin the
// diagnostics, their order and their text, so a rewrite of the netlist
// reader or of an analyzer that changes any finding fails here by name.
var lintPins = map[string]string{
	"facet/style1/cs4":                "1d6ec15167f70019249198e3828a9e04ca78b2f7b73689d35230089155464f3c",
	"facet/style1/cs5":                "1a714df18cc4c2915a934fa888dfa2334bc8bcc8aa54529046f77c4eb28d6c5d",
	"facet/style1/cs6":                "825cafaabf744d706fd94fd039baa047c7e0fd48f93552a1facbab5e3082e6b8",
	"facet/style2/cs4":                "1d6ec15167f70019249198e3828a9e04ca78b2f7b73689d35230089155464f3c",
	"facet/style2/cs5":                "1a714df18cc4c2915a934fa888dfa2334bc8bcc8aa54529046f77c4eb28d6c5d",
	"facet/style2/cs6":                "825cafaabf744d706fd94fd039baa047c7e0fd48f93552a1facbab5e3082e6b8",
	"chained/style1/cs8":              "8980e3f63173b806dbbd8e970d6f630ea49bbb25270c78a781b1d376525f6e9b",
	"chained/style1/cs9":              "6c108547e29266b60d9fbd5db3a5f857f8cfe4bcef08d7c3de49e7891ef1c1ad",
	"chained/style1/cs10":             "928e1af6ef30f9e403c2e63592e2b58c46f7f690e5e475a00f39fc4e6c0ff2ac",
	"chained/style2/cs8":              "8980e3f63173b806dbbd8e970d6f630ea49bbb25270c78a781b1d376525f6e9b",
	"chained/style2/cs9":              "6c108547e29266b60d9fbd5db3a5f857f8cfe4bcef08d7c3de49e7891ef1c1ad",
	"chained/style2/cs10":             "928e1af6ef30f9e403c2e63592e2b58c46f7f690e5e475a00f39fc4e6c0ff2ac",
	"diffeq/style1/cs4":               "abeb8a221dfb2ac7472f1ad0b3a7491d46fdd2502d821d143498a94da0fe89ef",
	"diffeq/style1/cs5":               "9b39cdf03f023e38c87a58640ec96590987ef18d302a5556827fc76148989f26",
	"diffeq/style1/cs6":               "f457e0b06a897eebbc2740585770cbc14cf0da0d8c5fd5a9b44f00fb482f0e8e",
	"diffeq/style2/cs4":               "abeb8a221dfb2ac7472f1ad0b3a7491d46fdd2502d821d143498a94da0fe89ef",
	"diffeq/style2/cs5":               "2c7beeebda8183f0fdebdd595a37339a98e42d1e073a655cc4f982b52f764bff",
	"diffeq/style2/cs6":               "edf41a1322fb265e1c9230917f0e9e94642bdca2b21520350ddcd5e72ccea8f8",
	"ar-lattice/style1/cs8":           "67740f9320cfda49cc7381bbb7b5a5df85fd023602a9620d88984f39292c8fda",
	"ar-lattice/style1/cs9":           "739026460634777ca6173bc84819dedfa04991d9cf54fd51b9b73da4cd18e0c5",
	"ar-lattice/style1/cs10":          "21bd0fc1495434e7a5e46ab66998719643d962087beafdf68867066f1b57e406",
	"ar-lattice/style2/cs8":           "67740f9320cfda49cc7381bbb7b5a5df85fd023602a9620d88984f39292c8fda",
	"ar-lattice/style2/cs9":           "739026460634777ca6173bc84819dedfa04991d9cf54fd51b9b73da4cd18e0c5",
	"ar-lattice/style2/cs10":          "21bd0fc1495434e7a5e46ab66998719643d962087beafdf68867066f1b57e406",
	"bandpass/style1/cs6":             "e8a0b3210378395155320c698f45eb76e5d2a2318365cb8e27fb917abaa496ef",
	"bandpass/style1/cs7":             "f64a5353c6db82dbbd80309960a77102ce1176d68c099ad3288bc82a9e37228c",
	"bandpass/style1/cs8":             "479e7a44321201609dd46c764684c7567154a68b11366c39ecb0085d92e920fd",
	"bandpass/style2/cs6":             "e8a0b3210378395155320c698f45eb76e5d2a2318365cb8e27fb917abaa496ef",
	"bandpass/style2/cs7":             "f64a5353c6db82dbbd80309960a77102ce1176d68c099ad3288bc82a9e37228c",
	"bandpass/style2/cs8":             "479e7a44321201609dd46c764684c7567154a68b11366c39ecb0085d92e920fd",
	"ewf/style1/cs17":                 "cf5fe5b40c7f97fc3aaf23c54c3e16fa6f8193bcd4f361db283e27a0f0577b50",
	"ewf/style1/cs18":                 "f17121d9ee9c44957980fadd5dde9f414a29f7e3f4e5336379aacd7348fefe06",
	"ewf/style1/cs19":                 "bcf97ecf6d9fb8fffe4714e15770a0a151af8b06830761949cf78e6c30ba97c4",
	"ewf/style2/cs17":                 "cf5fe5b40c7f97fc3aaf23c54c3e16fa6f8193bcd4f361db283e27a0f0577b50",
	"ewf/style2/cs18":                 "f17121d9ee9c44957980fadd5dde9f414a29f7e3f4e5336379aacd7348fefe06",
	"ewf/style2/cs19":                 "bcf97ecf6d9fb8fffe4714e15770a0a151af8b06830761949cf78e6c30ba97c4",
	"diffeq.hls/cs4":                  "909a1b792a0d02dc7fcd8b1c84fcef7b0b4bcb43996eaf85c8fa8b0d66d7fb2e",
	"diffeq.hls/cs6":                  "d26519a299a7e915ea1e0f528b521fbb6c6fdc874fcfcab7ec1ace265dc92698",
	"mac4.hls/cs4":                    "2d442a1c54f26bbb9814f41faa5f8a41046e07ac231854bac97f62319ef50449",
	"mac4.hls/cs6":                    "be5b36b7f251d156ff8d95e561e058d2d1cab616c3ec1116eb47247d5ef02736",
	"polyeval.hls/cs8":                "45f06ef126a5e899a41ce1d7ccfd0141fbc52b8e505643b82bf4bc8c15f63662",
	"polyeval.hls/cs10":               "c2fc687f547421ccfec8c07974195d1f18176dd2a67e1de6a2eaed92220e9f1d",
	"gen300/seed1/mul2":               "bd08c46f2491369d9ce6e7291af9a62e03ff3fa87e0ba70303a907f81c0a8857",
	"gen2000/seed1/mul2":              "6afdb989b06da0d88fc1a1201ad5dee251ba3776336442f8769ea70cff0a97fd",
	"corrupt/dup-decl":                "401ad1afb1513e305ea0f394efc3553486f53afa7933cbdb857ceb72182757b9",
	"corrupt/multi-drive":             "122565a604da03013502cb258f1a1c4f249d84e4941d1a0c8b0f921938c6d28c",
	"corrupt/undeclared":              "49fab63e987fd5ffa7ac8d18718ccbdc0b197702cfe529202321a681a1817756",
	"corrupt/width":                   "e0af08c9b5a163367f69290ee875aa38d0b36526c207b33213297c147b732248",
	"corrupt/comb-loop":               "8426b7b73280f43fa6204c19abc1774070eb6c8bd9cb9a963278df050c7cddc9",
	"corrupt/unparseable":             "2486581fa6ec0ba6ec5a837adfbd52deadf1a2021b165156dea995d25e28c6e2",
	"corrupt/undriven":                "4534b89b7f48345140c845a2ec1bfdc968df578307ac1fb71f90cb61a397255c",
	"mutate/commute-sub/facet":        "a0a78ebe2761e9cf3a57c94ba70f7b73d552727b555a33f4fc7296f0ea8f3225",
	"mutate/commute-sub/chained":      "9888f139e2b4272c10994804a28d4186f8791f434a1fc2eaf243263db5274961",
	"mutate/commute-sub/diffeq":       "bbdc84bd1000960aa7ff1f9b0249a07aa70a437842beb0702fc6507123061fbe",
	"mutate/commute-sub/ar-lattice":   "error: netlist has no non-commutative binary assign",
	"mutate/commute-sub/bandpass":     "625fc7a88a10a983ba94fa363851273c694ea5507e85697c5b3f22d36c6ca625",
	"mutate/commute-sub/ewf":          "error: netlist has no non-commutative binary assign",
	"mutate/drop-register/facet":      "6bf6769896fb300b233be5b34458ad66b3a2b67bf2bf709250e687799d8ea736",
	"mutate/drop-register/chained":    "3c289a776c00394d3fa1a49080cad0908bea7333b248a7a1dcc640d7985a8bd1",
	"mutate/drop-register/diffeq":     "20ea9ccee2537cfee464838b432da5b936e1e659fa6f0184075ad7e200873f85",
	"mutate/drop-register/ar-lattice": "f8877bce8d3eb3bd3b8332eb5eff7a35a098bf78353c7626d978063d52ce9fb8",
	"mutate/drop-register/bandpass":   "44c9ccba2318b41b5c7a6eceba1b5e6416459bb48fe6cb226194d638defbadbc",
	"mutate/drop-register/ewf":        "7fb1e1887c5b687fba19d72b5637de8bef61be1f0f10e93486ec0d81cd4cf35f",
	"mutate/rebind-alu/facet":         "c5832f60e5c02c7bece902825bad40922780fe49830eca6a5b7ce83de0091813",
	"mutate/rebind-alu/chained":       "d2694c50bbe137fd6b55ef81ed18337eff8331c8a9fee4d77efe0f05d21562f3",
	"mutate/rebind-alu/diffeq":        "c6621fc64410f8811c2e0ac521621d0d6532da7271a2c8624dfedc28c0ffe05d",
	"mutate/rebind-alu/ar-lattice":    "1b1b1c45ba13f3018ba827e0af07c82763459edbd94f7bcb300cec4ab97d1e12",
	"mutate/rebind-alu/bandpass":      "0d66cdf55636c05a731de50f5df3f78f44c0bfb193ff1bb2393aadfc8ddcdb0b",
	"mutate/rebind-alu/ewf":           "f872e8ccb66e6c31478e8355f321f75343bceb316aa83e8543e8620a72f4ae9c",
	"mutate/shift-action/facet":       "5c46315587471fea06a48d6de9c11a0af95415d27294ea637cf641c8e161bf75",
	"mutate/shift-action/chained":     "a7ff182a9e5297ac8ba81925fd2afb3be4fc8256dd96a5b88f578fa4c4f01abf",
	"mutate/shift-action/diffeq":      "ed9b366aefdacbc06e5a93e6b842d536c6223b997720e90615c6b08804bdae0b",
	"mutate/shift-action/ar-lattice":  "fa13cc31900aad08feb8e70be7ca4df05aaa2d34141faf1833d7ec23d9b6b83b",
	"mutate/shift-action/bandpass":    "5a5aec1390d8eb795a50098f6344305bec6069c2c40e1c1532455ca41b83bfa7",
	"mutate/shift-action/ewf":         "0b06320655fe3e055f1089c0ba5622dbf3cac0542911b2943d438247157c2008",
	"mutate/swap-mux/facet":           "error: no ALU with two port-1 inputs under selection",
	"mutate/swap-mux/chained":         "b361afc8f73f63848b999b0dae7bc13e6fa216fd44039be950aaf4db36df3816",
	"mutate/swap-mux/diffeq":          "645327025d77ba0d182931557ff04e8dd8437bb342cb2b0cec745cc11fdaa5fd",
	"mutate/swap-mux/ar-lattice":      "a1d77b3a67e71ff0ee2e9fb653537a4c3c3049f9605cb651dbb1603ce1f80073",
	"mutate/swap-mux/bandpass":        "d22e5174b099eea68d3ad000110bcbddb618ea70b60fe4d84e8e2faa13515ba7",
	"mutate/swap-mux/ewf":             "14cbafa081f1a828ba195251c1283b647db762efca7375b8afdc5c4fe0ba8a03",
	"malformed/dup-module":            "cd38140e43e301dbe81197dda78850b0aaef0268d1a02b24c5b0d30b0c4379f5",
	"malformed/crlf":                  "1d6ec15167f70019249198e3828a9e04ca78b2f7b73689d35230089155464f3c",
	"malformed/unicode-space":         "1d6ec15167f70019249198e3828a9e04ca78b2f7b73689d35230089155464f3c",
	"malformed/unicode-inside":        "56de81b454a8e2e1d7c4b85bf0be8462f47adf48c5853c1844d5b5e6869ecf27",
	"malformed/stray-semicolon":       "8e678c3436e24d3949470513539199d6ced03c43074c314373890ac49fa67d86",
	"malformed/stray-semicolon-tail":  "1d6ec15167f70019249198e3828a9e04ca78b2f7b73689d35230089155464f3c",
	"malformed/unknown-operator":      "2f1d80301e8c32c8d5cc9e6826c9e2b9cdd44a20d006b3ebd898942cff947a54",
	"malformed/unparsed-operator":     "f54f2de5182161ef52f69cce3792c0867c6c02c8b2c8fe7378db56b9d579e400",
	"malformed/hex-literal":           "f137d44aab29452bcd7fe7a60e68c69f1e7b5570b469b4f852ca3c453bea3e01",
}

// lintPinUnit is one entry of the pinned corpus. build returns a fresh
// unit, or the error that kept it from being synthesized.
type lintPinUnit struct {
	key   string
	build func() (*lint.Unit, error)
}

// lintDigest runs every analyzer and Certify over the unit and hashes
// both results.
func lintDigest(u *lint.Unit) (string, error) {
	ctx := context.Background()
	ds, err := lint.RunCtx(ctx, u, lint.Options{})
	if err != nil {
		return "", err
	}
	cert, err := lint.Certify(ctx, u)
	if err != nil {
		return "", err
	}
	dj, err := json.Marshal(ds)
	if err != nil {
		return "", err
	}
	cj, err := json.Marshal(cert)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(append(dj, '\n'), cj...))
	return hex.EncodeToString(sum[:]), nil
}

// facetUnit synthesizes FACET at cs 4, the unit the netlist corruption
// and malformed-text entries start from.
func facetUnit() (*lint.Unit, error) {
	d, err := core.Synthesize(benchmarks.Facet().Graph, core.Config{CS: 4})
	if err != nil {
		return nil, err
	}
	return d.LintUnit(), nil
}

// replaceOnce rewrites the first occurrence of old in the unit's
// netlist, failing when old is absent so a corpus entry cannot
// silently become the clean design.
func replaceOnce(u *lint.Unit, old, repl string) error {
	if !strings.Contains(u.Netlist, old) {
		return fmt.Errorf("%q not in netlist", old)
	}
	u.Netlist = strings.Replace(u.Netlist, old, repl, 1)
	return nil
}

func lintPinUnits(t *testing.T) []lintPinUnit {
	t.Helper()
	var units []lintPinUnit
	add := func(key string, build func() (*lint.Unit, error)) {
		units = append(units, lintPinUnit{key: key, build: build})
	}

	for _, ex := range benchmarks.All() {
		cp := ex.Graph.CriticalPathCycles()
		for style := 1; style <= 2; style++ {
			for cs := cp; cs <= cp+2; cs++ {
				add(fmt.Sprintf("%s/style%d/cs%d", ex.Name, style, cs), func() (*lint.Unit, error) {
					cfg := core.Config{CS: cs, Style: style, ClockNs: ex.ClockNs, PipelinedOps: ex.PipelinedOps}
					if ex.Latency != nil {
						cfg.Latency = ex.Latency(cs)
					}
					d, err := core.Synthesize(ex.Graph, cfg)
					if err != nil {
						return nil, err
					}
					return d.LintUnit(), nil
				})
			}
		}
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "designs", "*.hls"))
	if err != nil || len(files) == 0 {
		t.Fatalf("designs/*.hls: %v (%d files)", err, len(files))
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		g, consts, outputs, err := behav.Compile(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		res, err := opt.Pipeline(g, consts, outputs)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cp := res.Graph.CriticalPathCycles()
		for _, cs := range []int{cp, cp + 2} {
			src := string(src)
			add(fmt.Sprintf("%s/cs%d", filepath.Base(f), cs), func() (*lint.Unit, error) {
				d, err := core.SynthesizeSource(src, core.Config{CS: cs, Optimize: true})
				if err != nil {
					return nil, err
				}
				return d.LintUnit(), nil
			})
		}
	}

	for _, nodes := range []int{300, 2000} {
		add(fmt.Sprintf("gen%d/seed1/mul2", nodes), func() (*lint.Unit, error) {
			g, err := gen.Generate(gen.Config{Nodes: nodes, MulCycles: 2, Seed: 1})
			if err != nil {
				return nil, err
			}
			d, err := core.Synthesize(g, core.Config{CS: g.CriticalPathCycles() + 4})
			if err != nil {
				return nil, err
			}
			return d.LintUnit(), nil
		})
	}

	// The netlist corruptions of TestAnalyzersCatchCorruption.
	appendText := map[string]string{
		"dup-decl":    "\nwire [31:0] w_add1;\n",
		"multi-drive": "\nassign w_add1 = w_add2;\n",
		"undeclared":  "\nassign w_add1 = phantom;\n",
		"width":       "\nwire [15:0] narrow;\nassign narrow = w_add1;\n",
		"comb-loop":   "\nwire [31:0] la;\nwire [31:0] lb;\nassign la = lb;\nassign lb = la;\n",
		"unparseable": "\ninitial $display(\"hi\");\n",
	}
	for _, name := range []string{"dup-decl", "multi-drive", "undeclared", "width", "comb-loop", "unparseable"} {
		text := appendText[name]
		add("corrupt/"+name, func() (*lint.Unit, error) {
			u, err := facetUnit()
			if err != nil {
				return nil, err
			}
			u.Netlist += text
			return u, nil
		})
	}
	add("corrupt/undriven", func() (*lint.Unit, error) {
		u, err := facetUnit()
		if err != nil {
			return nil, err
		}
		lines := strings.Split(u.Netlist, "\n")
		for i, l := range lines {
			if strings.Contains(l, "assign w_add1 ") {
				u.Netlist = strings.Join(append(lines[:i:i], lines[i+1:]...), "\n")
				return u, nil
			}
		}
		return nil, fmt.Errorf("no assign to w_add1")
	})

	for _, m := range lint.Mutations() {
		for _, ex := range benchmarks.All() {
			add(fmt.Sprintf("mutate/%s/%s", m.Name, ex.Name), func() (*lint.Unit, error) {
				d, err := core.Synthesize(ex.Graph, core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs})
				if err != nil {
					return nil, err
				}
				u := d.LintUnit()
				if err := lint.ApplyMutation(u, m.Name); err != nil {
					return nil, err
				}
				return u, nil
			})
		}
	}

	// Malformed texts: what the emitter never writes but a netlist read
	// from disk can hold.
	malformed := []struct {
		name  string
		apply func(u *lint.Unit) error
	}{
		{"dup-module", func(u *lint.Unit) error {
			u.Netlist += "module again (\n    input  wire clk\n);\nendmodule\n"
			return nil
		}},
		{"crlf", func(u *lint.Unit) error {
			u.Netlist = strings.ReplaceAll(u.Netlist, "\n", "\r\n")
			return nil
		}},
		{"unicode-space", func(u *lint.Unit) error {
			u.Netlist = strings.ReplaceAll(u.Netlist, "    assign ", "\u00a0\u2003assign ")
			return replaceOnce(u, "assign out_and = w_and;", "assign out_and = w_and;\u3000\u0085")
		}},
		{"unicode-inside", func(u *lint.Unit) error {
			return replaceOnce(u, "w_div & w_i7", "w_div\u00a0& w_i7")
		}},
		{"stray-semicolon", func(u *lint.Unit) error {
			return replaceOnce(u, "assign w_add1 = ", "assign w_add1 = ; ")
		}},
		{"stray-semicolon-tail", func(u *lint.Unit) error {
			return replaceOnce(u, "R0 <= w_mul;", "R0 <= w_mul;; R1 <= w_ghost;")
		}},
		{"unknown-operator", func(u *lint.Unit) error {
			return replaceOnce(u, "w_i1 + w_i2", "w_i1 % w_i2")
		}},
		{"unparsed-operator", func(u *lint.Unit) error {
			return replaceOnce(u, "w_i1 + w_i2", "w_i1 <<< w_i2")
		}},
		{"hex-literal", func(u *lint.Unit) error {
			return replaceOnce(u, "w_i1 + w_i2", "w_i1 + 32'h1F")
		}},
	}
	for _, mc := range malformed {
		add("malformed/"+mc.name, func() (*lint.Unit, error) {
			u, err := facetUnit()
			if err != nil {
				return nil, err
			}
			if err := mc.apply(u); err != nil {
				return nil, err
			}
			return u, nil
		})
	}
	return units
}

// TestLintGoldenPins pins every lint finding and certificate over the
// corpus. A key whose unit cannot be built pins the build error instead.
func TestLintGoldenPins(t *testing.T) {
	if testing.Short() {
		t.Skip("full lint corpus")
	}
	units := lintPinUnits(t)
	seen := make(map[string]bool, len(units))
	for _, pu := range units {
		seen[pu.key] = true
		var got string
		u, err := pu.build()
		if err == nil {
			got, err = lintDigest(u)
		}
		if err != nil {
			got = "error: " + err.Error()
		}
		if got != lintPins[pu.key] {
			t.Errorf("%q: %q, // pinned %q", pu.key, got, lintPins[pu.key])
		}
	}
	for key := range lintPins {
		if !seen[key] {
			t.Errorf("pinned key %q is not in the corpus", key)
		}
	}
}
