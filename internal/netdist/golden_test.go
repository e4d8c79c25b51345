package netdist

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"fxdist/internal/mkhash"
)

// The bytes a peer on either side of a codec change must still read. A
// round trip cannot catch a change applied to the encoder and the decoder
// alike; these frames, written down once, can.
var (
	goldenResponse = Response{ID: 300, Buckets: 2, Scanned: 5, Records: []mkhash.Record{
		{"ab", "", "x\x00y"},
		{strings.Repeat("z", 300)},
		{},
	}, StatsJSON: []byte(`{}`)}
	goldenResponseHex = "ac02" + // id 300
		"00" + // err ""
		"04" + "0a" + "00" + // zigzag buckets 2, scanned 5, retry-after 0
		"03" + // 3 records
		"03" + "026162" + "00" + "03780079" + // {"ab", "", "x\x00y"}
		"01" + "ac02" + strings.Repeat("7a", 300) + // {300 × "z"}
		"00" + // {}
		"027b7d" // stats "{}"

	goldenInstall = Request{ID: 9, AsDevice: -1, Epoch: 1, Control: OpInstall, Bucket: 12,
		SpecJSON: []byte(`{"m":8}`), Payload: []mkhash.Record{{"a", "\x00"}, {""}}}
	goldenInstallHex = "04" + // flags: the rescale extension
		"09" + "00" + "00" + "01" + // id 9, trace 0, parent 0, zigzag as-device -1
		"00" + "00" + // no spec, no value filters
		"01" + "03" + "18" + // epoch 1, control OpInstall, zigzag bucket 12
		"077b226d223a387d" + // spec JSON {"m":8}
		"02" + // 2 records
		"02" + "0161" + "0100" + // {"a", "\x00"}
		"01" + "00" // {""}
)

func TestWireGoldenFrames(t *testing.T) {
	golden, _ := hex.DecodeString(goldenResponseHex)
	if got := appendResponse(nil, &goldenResponse); !bytes.Equal(got, golden) {
		t.Fatalf("response encodes as\n%x\nwant\n%x", got, golden)
	}
	if n := responseSize(&goldenResponse); n != len(golden) {
		t.Fatalf("responseSize = %d, the frame is %d bytes", n, len(golden))
	}
	var resp Response
	release, err := decodeResponse(bytes.Clone(golden), &resp)
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if !respEqual(resp, goldenResponse) {
		t.Fatalf("response decodes as %+v", resp)
	}
	release()

	golden, _ = hex.DecodeString(goldenInstallHex)
	if got := appendRequest(nil, &goldenInstall); !bytes.Equal(got, golden) {
		t.Fatalf("install request encodes as\n%x\nwant\n%x", got, golden)
	}
	if n := requestSize(&goldenInstall); n != len(golden) {
		t.Fatalf("requestSize = %d, the frame is %d bytes", n, len(golden))
	}
	var req Request
	if err := decodeRequest(golden, &req); err != nil {
		t.Fatalf("decode install request: %v", err)
	}
	if !reflect.DeepEqual(req.Payload, goldenInstall.Payload) || string(req.SpecJSON) != `{"m":8}` ||
		req.ID != 9 || req.AsDevice != -1 || req.Epoch != 1 || req.Control != OpInstall || req.Bucket != 12 {
		t.Fatalf("install request decodes as %+v", req)
	}
}
