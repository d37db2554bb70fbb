package ruu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ruu/internal/livermore"
)

// digestConfigs lists every configuration the table generators run:
// the baselines and sizes of Tables 1-7 and the rows of ablations A1-A5
// at the sizes cmd/tables uses.
func digestConfigs() []labeledConfig {
	cfgs := []labeledConfig{{"T1", Config{Engine: EngineSimple}}}
	spec := Config{Engine: EngineRUU, Bypass: BypassFull}
	spec.Machine.Speculate = true
	sweeps := []struct {
		table string
		cfg   Config
		sizes []int
	}{
		{"T2", Config{Engine: EngineRSTU}, RSTUSizes},
		{"T3", Config{Engine: EngineRSTU, Paths: 2}, RSTUSizes},
		{"T4", Config{Engine: EngineRUU, Bypass: BypassFull}, RUUSizes},
		{"T5", Config{Engine: EngineRUU, Bypass: BypassNone}, RUUSizes},
		{"T6", Config{Engine: EngineRUU, Bypass: BypassLimited}, RUUSizes},
		{"T7", spec, RUUSizes},
	}
	for _, s := range sweeps {
		for _, n := range s.sizes {
			c := s.cfg
			c.Entries = n
			cfgs = append(cfgs, labeledConfig{fmt.Sprintf("%s/%d", s.table, n), c})
		}
	}
	ablations := []struct {
		id   string
		rows []labeledConfig
	}{
		{"A1", ablationRSOrganisationConfigs()},
		{"A4", ablationPreciseSchemesConfigs(12)},
		{"A5", ablationInstructionBuffersConfigs(12)},
		{"A2", ablationCounterWidthConfigs(15)},
		{"A3", ablationLoadRegsConfigs(15)},
	}
	for _, a := range ablations {
		for _, r := range a.rows {
			cfgs = append(cfgs, labeledConfig{a.id + "/" + r.label, r.cfg})
		}
	}
	return cfgs
}

// checkLifecycle checks one run's event stream against the lifecycle
// accounting every engine owes the observability layer: one Commit
// event per committed instruction, each committed ID decoded before it
// commits and committing once, and each ID with an Issue event ending
// in exactly one Commit or exactly one Squash, never both. Branches
// commit without an Issue event, so only the decode clause covers them.
func checkLifecycle(events []ProbeEvent, instructions int64) error {
	type life struct {
		decoded, issued   bool
		commits, squashes int
	}
	var ids []life
	commits := int64(0)
	for _, e := range events {
		switch e.Kind {
		case KindDecode, KindIssue, KindCommit, KindSquash:
		default:
			continue
		}
		if e.ID < 0 {
			return fmt.Errorf("%v event at cycle %d carries no instruction id", e.Kind, e.Cycle)
		}
		for int64(len(ids)) <= e.ID {
			ids = append(ids, life{})
		}
		l := &ids[e.ID]
		switch e.Kind {
		case KindDecode:
			l.decoded = true
		case KindIssue:
			l.issued = true
		case KindCommit:
			commits++
			l.commits++
			if !l.decoded {
				return fmt.Errorf("I%d commits without a decode", e.ID)
			}
			if l.commits > 1 {
				return fmt.Errorf("I%d commits twice", e.ID)
			}
		case KindSquash:
			l.squashes++
		}
	}
	for id, l := range ids {
		if l.issued && l.commits+l.squashes != 1 {
			return fmt.Errorf("I%d issued, then committed %d and squashed %d time(s); want exactly one of the two", id, l.commits, l.squashes)
		}
	}
	if commits != instructions {
		return fmt.Errorf("%d commit events for %d committed instructions", commits, instructions)
	}
	return nil
}

// configDigest runs the 14 kernels under cfg with a ProbeRecorder
// attached, checks each run's lifecycle accounting and, on a precise
// engine, its state at every commit (stateOracle), and returns one
// SHA-256 over, per kernel in order: the cycle count, the stall
// vector, every probe event and every per-cycle sample. label names
// the configuration in failures.
func configDigest(t *testing.T, label string, cfg Config) string {
	h := sha256.New()
	var buf []byte
	rec := NewProbeRecorder()
	cfg.Machine.Probe = rec
	for _, k := range livermore.Kernels() {
		rec.Events, rec.Samples = rec.Events[:0], rec.Samples[:0]
		u, err := k.Unit()
		if err != nil {
			t.Fatal(err)
		}
		st, err := k.NewState()
		if err != nil {
			t.Fatal(err)
		}
		c, oracle := withStateOracle(cfg, label+", "+k.Name, u.Prog, st)
		m, err := NewMachine(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(u.Prog, st)
		if err != nil || res.Trap != nil {
			t.Fatalf("%s: err=%v trap=%v", k.Name, err, res.Trap)
		}
		if err := oracle.Err(); err != nil {
			t.Fatal(err)
		}
		if err := k.Verify(st); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if err := checkLifecycle(rec.Events, res.Stats.Instructions); err != nil {
			t.Fatalf("%s, %s: lifecycle: %v", label, k.Name, err)
		}
		buf = binary.AppendVarint(buf[:0], res.Stats.Cycles)
		for _, n := range res.Stats.Stalls {
			buf = binary.AppendVarint(buf, n)
		}
		for _, e := range rec.Events {
			buf = append(buf, byte(e.Kind), e.Stall)
			buf = binary.AppendVarint(buf, int64(e.PC))
			buf = binary.AppendVarint(buf, e.ID)
			buf = binary.AppendVarint(buf, e.Cycle)
		}
		for _, s := range rec.Samples {
			buf = binary.AppendVarint(buf, s.Cycle)
			buf = binary.AppendVarint(buf, int64(s.InFlight))
			buf = binary.AppendVarint(buf, int64(s.LoadRegs))
			if s.BusBusy {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineEquivalenceDigest pins, for every table and ablation
// configuration, a digest of the complete observable timing behaviour
// over the Livermore kernels: cycles, stall vectors, the probe event
// stream and the per-cycle samples. Each run's stream must also pass
// checkLifecycle, so no engine drops or doubles a commit or squash, and
// each run of a precise engine must pass stateOracle at every commit.
// The cycle-count goldens cover a
// spread of configurations by their totals; this covers all of them
// event by event, so a restructured engine that changes any event of
// any run fails here. Regenerate with -run TestEngineEquivalenceDigest
// -v only after an intentional timing change.
func TestEngineEquivalenceDigest(t *testing.T) {
	for _, c := range digestConfigs() {
		c := c
		t.Run(c.label, func(t *testing.T) {
			t.Parallel()
			got := configDigest(t, c.label, c.cfg)
			want, ok := engineDigests[c.label]
			if !ok {
				t.Fatalf("no pinned digest: %q: %q,", c.label, got)
			}
			if got != want {
				t.Errorf("%q: digest %s, want %s", c.label, got, want)
			}
		})
	}
}

// engineDigests are the pinned digests, keyed by configuration label.
var engineDigests = map[string]string{
	"T1":    "7034539f0567a90065ebfc7863470b3b35867ad86a34d600d0f6282d93c2d1be",
	"T2/3":  "88cc0acda192a20cd3b2ca4136297a8699aec2df021e1742cb298ae3d2a357ef",
	"T2/4":  "ce6711695170f936016153275624d9ea786ac83ca24e80777d2e6f3ddf24de2e",
	"T2/5":  "3ae09b88f954ffcc47411a1dbc0bdde8ff2eaebebd27335347b9ffc8c95c04e3",
	"T2/6":  "d5cbb592ff78a4ea582bcf4d6fb8f42f5138abc23386a750fc4f694f3e4ec1f1",
	"T2/7":  "147eb8df0bca4dbad325a669141219f7f7bfd8f8817c0f101160b7874b3f99d8",
	"T2/8":  "3d320540f0f867e8ed3889a07de22b887366a2aff699a21e8f7659821e9c6bc1",
	"T2/9":  "59180a7dfa6c8861db45eb3ba96cdc55126b249f600e6f44624901430248b2d1",
	"T2/10": "20fec3c30dd5690a8edda2a17787a04bfcbc8a5014202191df6857d2960aa50a",
	"T2/15": "5c0e779fc68c44603603f36c1741f51b64653e73c7b6c0f48683118ca339daf1",
	"T2/20": "1e2eddb6cea9effaa36d6fb7a15effcd9899f4ac6d9a49c1ee28bd3f4b2eb793",
	"T2/25": "0b1c6d8e658cfc4e81d0b933c1ded85eb0eca140e6f4100771567aad86f3e779",
	"T2/30": "22262cff71c1464d018514d431abb1f52dbfea0a630e5ac21dd747314f2da258",
	"T3/3":  "337f1d7b3b452aeda583498da228bcdf5824dd722bf905cd20558fa889b8449b",
	"T3/4":  "97d3018c4ba4dc880ff566a647748faf667fff0e057818dcebdf3feb09f1efc5",
	"T3/5":  "77ce08008a7be5d881ce13cf757c1222844611ee4dc22a95af9314e38398b923",
	"T3/6":  "a59dd826eabb752a329b38a479f01bac47262172a47c76d907e155e6f69ce2c2",
	"T3/7":  "2dd9f5862e2f07bf06ba8206cb07a008d11fa58c8e7bda41d1ad84ae735e6534",
	"T3/8":  "a503f13ccca87ba0a71ffb7054d55383c8299dddad3438e80a4e5583e7e2f890",
	"T3/9":  "dba292ab59ef515434de1db6c608ca15f80f408da34e9ff0895bc9062f55d19a",
	"T3/10": "1d6406cffad6b7d6369742af6ad6ff7a857728c7522cb1a161be0b7fb8fdf2fd",
	"T3/15": "08f24ae6debfdcf1991b7d54434e7487b14ceaa5d7cbb937737af0beec3589c9",
	"T3/20": "d74d2e317ce28242169ab2078893055e17236309657c3a41bea450006e317458",
	"T3/25": "62ec7cb0689120dda33288deaaa874f453b012cec1ae0d39e0987c6d940d2035",
	"T3/30": "3cedcc6c0a8d66d6752cc791c63a2504b3cf7ee5254c35476495a3309f34a6f0",
	"T4/3":  "ba0cf150aa0d0d01d57681a84e02d15299c59c0e5f5e01c0a1687cf3c4d51e60",
	"T4/4":  "f40a329581fe7e595a834331a99551e20a59654280f909d4c9dffb65a396566e",
	"T4/6":  "704a5405b90816d688dfdfa5e5eb75ce62acad19edc3b7579be1fba8d3d06427",
	"T4/8":  "0774797a5765ec15772e256d64d9710ded2a738b397dea2547d5edaf66a83bea",
	"T4/10": "0dafcde034f789ba277865c1af86b5fc25b977e37c90a99a335c85d587571ebe",
	"T4/12": "8d4dc9d4b53f830e5a924db787b56f8c35732cef8ab8652f8d0175f867b9c29b",
	"T4/15": "b0e7948d38c1064f49f42824c23e1b112fc81c64c0202bbebb265bc6051dde68",
	"T4/20": "3ff03f8e1474b9fdde0df18b69976f2888813e3323e19ca3b60097d714a37bb6",
	"T4/25": "93eb4aebd85cd893611059ab5d2c5ba36c31fd528409e595fedd959efe9842f9",
	"T4/30": "00ab827302d1e0d15fc2969951c551c9f6c7ab762c0c5a9078d131db1be69688",
	"T4/40": "9964708100d835a696b8ee69fe047266a0d5960e28072540c483ccedf0b9ba5f",
	"T4/50": "9964708100d835a696b8ee69fe047266a0d5960e28072540c483ccedf0b9ba5f",
	"T5/3":  "a260042c248d96b6c93f4d3551dfe6737cd2cd9b49a604fb98875db50d734f32",
	"T5/4":  "e26a5398f330f9857db8a206f8d2204013ad2994312979894b14c5d61bff5fd1",
	"T5/6":  "9e476761088f5986af1a6b6bc7a72d039a56ca1573fb85e0d9faa54cdb4bebbb",
	"T5/8":  "c3a46605d3c3e7dec2dcff30090040d5519a4bd7a44ee50f8ebee5c913e4edac",
	"T5/10": "8c9c2cce5db75c3dd11e62eea274fecd19ea26170f43527474c3f834caea83e4",
	"T5/12": "e31e8eaeb668fcbdd315a2749af1fe3fbcd897cf738d142d24855f79f268e129",
	"T5/15": "7f4212e9e7e208825be0347c2865b6ce40e8d29e1686ea25828d65a4b9f7368c",
	"T5/20": "713ca2e996c7b90f2bfc3163a45fd7ebea2ac445bbb396b11d1a22d52c61dc06",
	"T5/25": "01be53ac009959cd3b0cf859735f9705cd6a681970b31b95d49571ff5320c2c4",
	"T5/30": "d596e31586cb2dc5fffdced5f1da54970b0f1cc9dd1be31f8f3a766d283a6562",
	"T5/40": "192f8ff6fccd50b16a7315a83f7b5b3159d9fcbb850d8648fbaa2b4a7e86fa38",
	"T5/50": "192f8ff6fccd50b16a7315a83f7b5b3159d9fcbb850d8648fbaa2b4a7e86fa38",
	"T6/3":  "9a11e15bb6509ac46c4b750663bad473bf15ebca4193a7a20dc2b7e59fb1d344",
	"T6/4":  "d7e1742c822da0992841fc9670a2ec0a37096e8d8aa4ac11cf82339e127dc0f0",
	"T6/6":  "d909ed41c64671f1a38546e3171e2f6d9beea36064ba25d24093830b65fce25f",
	"T6/8":  "713bd99ac91625683042c434ff788945f8b7bcb9175fb7ff6ae3b1450b941969",
	"T6/10": "302cdc5adbdae9d0909ad426f7dcc776703b11522d4ade6e320c5a694507f584",
	"T6/12": "3e046dcff4896ce3f61b094207220a0098fcbcf0bb45bdbd3ac99f59cb4bae89",
	"T6/15": "f359f21140455a148e9e5283911715521382489486a9949af576ce9cbab27b9e",
	"T6/20": "c3a1c84e697a9633330dbebb19e3f217210ed893187f21f84d215acf924408b2",
	"T6/25": "c3cbcf180f03c4020ce58c2fa0240f01f0aa4738fc856130061f56546a8974c2",
	"T6/30": "f1ad47413b3381d0f2dce5a327a4ae1d4474680f50d2d91714f61794c7d0eb65",
	"T6/40": "eba4e1b38330e5ecfc832dd59365f0436aead8aed755cabba0b675ff3e9f6aec",
	"T6/50": "eba4e1b38330e5ecfc832dd59365f0436aead8aed755cabba0b675ff3e9f6aec",
	"T7/3":  "08e6da9d8189e312cd8ce329758b6db4273c093fd4ae850dfdbefca0d6fa0361",
	"T7/4":  "c0cab853b70ad638efb68a0bc5dd494d5819368e8ae526409c927aedc50fb964",
	"T7/6":  "4f3430194e1e8ce196c7f15076df48342bde50e85f8d989a08b59e38afa86839",
	"T7/8":  "10186d5bbe1098f513d9470463ee3f744cbeb6fc8b0c6f3a9f49a73ff9471ecd",
	"T7/10": "1fe47dbffbab6f12b5d78551b05676494b129a9ee80ad203bac8de8a19489062",
	"T7/12": "a0820851e2c3ff8a56fb458dfe84d849e00059f46ab741a9168c9df2e5f4f118",
	"T7/15": "d6320e2940b5d7e5d943f882928c8fba205aadaf248ab56f11cf53789bef4bbc",
	"T7/20": "6c60ea4176996d0bea45e806be93796088c9edc37754fbc15b4a92c4ac104a90",
	"T7/25": "49e8b5378f68e66f2cc8c71db8c133910d4b7ade93c4d7a72c2a00821b3cc2ee",
	"T7/30": "3982f2ec66e7d4ffc119c22ede41544a1163798820e1d4560e905a8eb8970c59",
	"T7/40": "a6fb6b51aa1721ad6f510d96f7a74431c69dd3634106a7b0c5805f9ff1a12f07",
	"T7/50": "8ad321509d6ec3c4e7c388c6a3a5ac2c493f5b8a8c4986a917937a693952ae7f",
	"A1/tomasulo (2/unit, per-register tags)":    "917705067a801297aa70e3e4399195c06253f5852d948b2127000b5c1096f162",
	"A1/tag unit (2/unit, TU=20)":                "a7224c177c63a864b3729e9699d01acc2395f7b5bea3176ed480f566276ca8e5",
	"A1/RS pool (10, TU=20)":                     "f651adf9afb53021582ebfd8548d5e73a28c9128b132a49d032158a8cbce4bc6",
	"A1/RSTU (10)":                               "20fec3c30dd5690a8edda2a17787a04bfcbc8a5014202191df6857d2960aa50a",
	"A1/RSTU (20)":                               "1e2eddb6cea9effaa36d6fb7a15effcd9899f4ac6d9a49c1ee28bd3f4b2eb793",
	"A1/RUU (10, bypass)":                        "0dafcde034f789ba277865c1af86b5fc25b977e37c90a99a335c85d587571ebe",
	"A1/RUU (20, bypass)":                        "3ff03f8e1474b9fdde0df18b69976f2888813e3323e19ca3b60097d714a37bb6",
	"A4/simple issue (in-order, imprecise)":      "7034539f0567a90065ebfc7863470b3b35867ad86a34d600d0f6282d93c2d1be",
	"A4/reorder buffer (in-order, precise)":      "97d96fba02ef58ef57114a00bb8c209c19bc44cb3d9f9cbe438506cc3e111eab",
	"A4/reorder buffer + bypass":                 "c80199677855cd3b739ebae0cb2984eb8ce0459000900e19bfdc25c3c42ab137",
	"A4/reorder buffer + future file":            "c80199677855cd3b739ebae0cb2984eb8ce0459000900e19bfdc25c3c42ab137",
	"A4/RSTU (out-of-order, imprecise)":          "6df74c0be0178975acf173c2c22d9b4b956472e95906c3f86655c983d83f91b1",
	"A4/RUU with bypass (out-of-order, precise)": "8d4dc9d4b53f830e5a924db787b56f8c35732cef8ab8652f8d0175f867b9c29b",
	"A5/ideal fetch (the paper's assumption)":    "8d4dc9d4b53f830e5a924db787b56f8c35732cef8ab8652f8d0175f867b9c29b",
	"A5/4 x 64-parcel buffers (CRAY-1)":          "fc2e132aa35c0dd28c9e558ba22d70ffc0675ab0ab81453899c8ea204ca7371d",
	"A5/4 x 16-parcel buffers":                   "d84e6f6c6bbbfe5f89e5f848a78b15a881cf8274fd247f65d6b9f91131e50a1b",
	"A5/2 x 8-parcel buffers":                    "34189f545c48cfcd3dd5ada2c386d37a91782815158e7adec6bd10783bd82321",
	"A2/n=1 (max 1 instances)":                   "74c3b26302bf3968a8e3058ef400a3957577c0daf0caa4747c5d08bfb1e3215e",
	"A2/n=2 (max 3 instances)":                   "a1ea4a1f98701f8837274bf210972e9a3b74b2178b8c6288e7075a5f22447320",
	"A2/n=3 (max 7 instances)":                   "b0e7948d38c1064f49f42824c23e1b112fc81c64c0202bbebb265bc6051dde68",
	"A2/n=4 (max 15 instances)":                  "dc4b5765945db577c48cb0e8507547666d823d8e30a97aab4f349ac19ec8be5c",
	"A3/1 load registers":                        "ddd3cfe76e268e6ba50a4fbd754ec8d0718ebfe1f88b83a571f59800a80b94ce",
	"A3/2 load registers":                        "dd8c4b089220767a18d5125b72deb0e366ddd1bb0c45ef936f4cb8610f9803f7",
	"A3/3 load registers":                        "306a9072adc1e11a4c0314bb60c75893551951a6518e0270da0a0826876485a4",
	"A3/4 load registers":                        "f6576f101a1d097ec1aa2d5ef38e46d4490c1cf40f9a845dde80092cbe8c76e6",
	"A3/6 load registers":                        "b0e7948d38c1064f49f42824c23e1b112fc81c64c0202bbebb265bc6051dde68",
	"A3/8 load registers":                        "b0e7948d38c1064f49f42824c23e1b112fc81c64c0202bbebb265bc6051dde68",
}
