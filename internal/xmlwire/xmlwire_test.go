package xmlwire

import (
	"bytes"
	"encoding/xml"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func stdEscape(s []byte) string {
	var b bytes.Buffer
	if err := xml.EscapeText(&b, s); err != nil {
		panic(err)
	}
	return b.String()
}

// The Writer's escaper must be encoding/xml's, byte for byte: it is what
// keeps a type that moved off xml.Marshal emitting the same document.
func TestEscapeMatchesEncodingXML(t *testing.T) {
	if Header != xml.Header {
		t.Fatalf("Header = %q, encoding/xml's is %q", Header, xml.Header)
	}
	cases := []string{
		"", "plain", `<>&"'`, "tab\tnl\ncr\r", "Māori 日本語 №", "\x00\x01\x1f\x7f",
		"bad utf8 \xff\xfe \xc3", "\xed\xa0\x80 surrogate", "\uFFFD \uFFFE \uFFFF", "trailing \xe6\x9d",
		"]]>", strings.Repeat("a&b", 100),
	}
	check := func(s string) bool {
		want := stdEscape([]byte(s))
		ok := string(appendEscaped(nil, s)) == want && string(appendEscaped(nil, []byte(s))) == want &&
			escapedLen(s) == len(want) && escapedLen([]byte(s)) == len(want)
		if !ok {
			t.Errorf("escape(%q) = %q, want %q (len %d vs %d)", s, appendEscaped(nil, s), want, escapedLen(s), len(want))
		}
		return ok
	}
	for _, c := range cases {
		check(c)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

type sample struct {
	name  string
	n     int64
	u     uint64
	f     float64
	raw   []byte
	attrs []string
}

func (v *sample) writeXML(w *Writer) {
	w.Markup(Header + "<Sample>")
	w.Element("Name", v.name)
	w.OptElement("Skipped", "")
	w.IntElement("N", v.n)
	w.Element("U", strconv.FormatUint(v.u, 10))
	w.Element("F", strconv.FormatFloat(v.f, 'g', -1, 64))
	w.RawElement("Raw", v.raw)
	for _, a := range v.attrs {
		w.Markup(`<A k="`)
		w.String(a)
		w.Markup(`">`)
		w.Text([]byte(a))
		w.Markup("</A>")
	}
	w.Markup("</Sample>")
}

func TestWriterMeasuresExactly(t *testing.T) {
	v := &sample{name: "a<b", n: -42, u: 1<<64 - 1, f: 1e-7, raw: []byte("<x>1</x>"), attrs: []string{"q\"uote", "é"}}
	var w Writer
	v.writeXML(&w)
	w.Alloc()
	v.writeXML(&w)
	got := w.Bytes()
	want := Header + `<Sample><Name>a&lt;b</Name><N>-42</N><U>18446744073709551615</U><F>1e-07</F><Raw><x>1</x></Raw>` +
		`<A k="q&#34;uote">q&#34;uote</A><A k="é">é</A></Sample>`
	if string(got) != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("buffer cap %d for %d bytes: the measuring pass is off", cap(got), len(got))
	}

	// And the Scanner reads it back.
	s := NewScanner(got)
	var back sample
	for s.Root("Sample"); s.Next(); {
		switch string(s.Name()) {
		case "Name":
			back.name = s.String()
		case "N":
			back.n = s.Int64()
		case "U":
			back.u = s.Uint64()
		case "F":
			back.f = s.Float64()
		case "Raw":
			back.raw = s.Raw()
		case "A":
			k := s.AttrString("k")
			if v := s.String(); v != k {
				t.Errorf("attr %q != text %q", k, v)
			}
			back.attrs = append(back.attrs, k)
		default:
			s.Reject()
		}
	}
	if !s.Done() {
		t.Fatal("scanner rejected the writer's output")
	}
	if back.name != v.name || back.n != v.n || back.u != v.u || back.f != v.f ||
		string(back.raw) != string(v.raw) || strings.Join(back.attrs, "|") != strings.Join(v.attrs, "|") {
		t.Fatalf("read back %+v, wrote %+v", back, v)
	}
}

// scanDoc walks <D><T>text</T><R>raw</R></D> the way a typed decoder would.
func scanDoc(doc string) (text, raw string, ok bool) {
	s := NewScanner([]byte(doc))
	for s.Root("D"); s.Next(); {
		switch string(s.Name()) {
		case "T":
			text = s.String()
		case "R":
			raw = string(s.Raw())
		default:
			s.Reject()
		}
	}
	return text, raw, s.Done()
}

func TestScannerAccepts(t *testing.T) {
	cases := []struct{ doc, text, raw string }{
		{`<D><T>a</T><R><x>1</x></R></D>`, "a", "<x>1</x>"},
		{Header + `<D><T>a</T></D>`, "a", ""},
		{" \n\t<D>\n  <T>a b</T>\n  <R> <x/> </R>\n</D>", "a b", " <x/> "},
		{`<D><T>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#xA;&#x10FFFF;</T></D>`, "<>&'\"AB\n\U0010FFFF", ""},
		{`<D><T></T><R></R></D>`, "", ""},
		{`<D><R><a b="1" c='2 "q" &lt;'  >t</a><e  /><f.g-h_1>é</f.g-h_1></R></D>`, "",
			`<a b="1" c='2 "q" &lt;'  >t</a><e  /><f.g-h_1>é</f.g-h_1>`},
		{`<D><R>text ]] &gt; only</R></D>`, "", "text ]] &gt; only"},
		{`<D><T>x</T><T>y</T></D>`, "y", ""}, // last one wins, as in encoding/xml
	}
	for _, c := range cases {
		text, raw, ok := scanDoc(c.doc)
		if !ok || text != c.text || raw != c.raw {
			t.Errorf("scan(%q) = %q, %q, %v; want %q, %q, true", c.doc, text, raw, ok, c.text, c.raw)
		}
	}
}

func TestScannerRejects(t *testing.T) {
	deep := strings.Repeat("<a>", maxDepth) + strings.Repeat("</a>", maxDepth)
	cases := map[string]string{
		"empty":                 ``,
		"text only":             `plain`,
		"wrong root":            `<E><T>a</T></E>`,
		"root attribute":        `<D a="1"><T>a</T></D>`,
		"trailing bytes":        `<D><T>a</T></D> `,
		"second root":           `<D></D><D></D>`,
		"truncated":             `<D><T>a</T>`,
		"truncated tag":         `<D><T`,
		"mismatched end":        `<D><T>a</R></D>`,
		"unknown element":       `<D><U>a</U></D>`,
		"text between elements": `<D>x<T>a</T></D>`,
		"child in text":         `<D><T>a<b/></T></D>`,
		"self-closing typed":    `<D><T/></D>`,
		"attribute on text":     `<D><T k="v">a</T></D>`,
		"namespace prefix":      `<D><R><x:y>1</x:y></R></D>`,
		"xmlns":                 `<D><R><y xmlns="u">1</y></R></D>`,
		"comment":               `<D><!-- c --><T>a</T></D>`,
		"comment in raw":        `<D><R><!-- c --></R></D>`,
		"cdata":                 `<D><T><![CDATA[a]]></T></D>`,
		"processing instr":      `<D><?pi x?><T>a</T></D>`,
		"late declaration":      `<D>` + Header + `</D>`,
		"other declaration":     `<?xml version="1.0"?><D></D>`,
		"doctype":               `<!DOCTYPE D><D></D>`,
		"carriage return":       "<D><T>a\r\nb</T></D>",
		"cr in raw":             "<D><R>a\rb</R></D>",
		"control char":          "<D><T>a\x01</T></D>",
		"invalid utf8":          "<D><T>a\xff</T></D>",
		"U+FFFE":                "<D><T>\uFFFE</T></D>",
		"unknown entity":        `<D><T>&nbsp;</T></D>`,
		"unterminated entity":   `<D><T>&amp</T></D>`,
		"bare ampersand":        `<D><T>a & b</T></D>`,
		"NUL reference":         `<D><T>&#0;</T></D>`,
		"surrogate reference":   `<D><T>&#xD800;</T></D>`,
		"huge reference":        `<D><T>&#x110000;</T></D>`,
		"overflowing reference": `<D><T>&#99999999999999999999;</T></D>`,
		"empty reference":       `<D><T>&#;</T></D>`,
		"upper-case X":          `<D><T>&#X41;</T></D>`,
		"]]> in text":           `<D><T>a]]>b</T></D>`,
		"< in value":            `<D><R><a b="<"/></R></D>`,
		"unquoted value":        `<D><R><a b=1/></R></D>`,
		"valueless attribute":   `<D><R><a b/></R></D>`,
		"attributes unspaced":   `<D><R><a b="1"c="2"/></R></D>`,
		"digit-led name":        `<D><R><1a/></R></D>`,
		"non-ASCII name":        `<D><R><é/></R></D>`,
		"space before name":     `<D><R>< a/></R></D>`,
		"space in end tag":      `<D><T>a</T ></D>`,
		"too deep":              `<D><R>` + deep + `</R></D>`,
	}
	for name, doc := range cases {
		if text, raw, ok := scanDoc(doc); ok {
			t.Errorf("%s: scan(%q) accepted (%q, %q)", name, doc, text, raw)
		}
	}
	// One level less fits the stack.
	fits := strings.Repeat("<a>", maxDepth-2) + strings.Repeat("</a>", maxDepth-2)
	if _, _, ok := scanDoc(`<D><R>` + fits + `</R></D>`); !ok {
		t.Error("nesting within the stack rejected")
	}
}

func TestScannerNumbers(t *testing.T) {
	num := func(doc string) (i int64, u uint64, f float64, b bool, ok bool) {
		s := NewScanner([]byte(doc))
		for s.Root("D"); s.Next(); {
			switch string(s.Name()) {
			case "I":
				i = s.Int64()
			case "U":
				u = s.Uint64()
			case "F":
				f = s.Float64()
			case "B":
				b = s.Bool()
			}
		}
		return i, u, f, b, s.Done()
	}
	if i, u, f, b, ok := num(`<D><I> -7 </I><U>18446744073709551615</U><F>1e-07</F><B>true</B></D>`); !ok || i != -7 || u != 1<<64-1 || f != 1e-7 || !b {
		t.Errorf("got %d %d %g %v %v", i, u, f, b, ok)
	}
	if i, u, f, b, ok := num(`<D><I></I><U></U><F></F><B></B></D>`); !ok || i != 0 || u != 0 || f != 0 || b {
		t.Errorf("empty elements: got %d %d %g %v %v", i, u, f, b, ok)
	}
	for _, doc := range []string{`<D><I>1.5</I></D>`, `<D><I> </I></D>`, `<D><U>-1</U></D>`, `<D><F>x</F></D>`, `<D><B>yes</B></D>`, `<D><I>9223372036854775808</I></D>`} {
		if _, _, _, _, ok := num(doc); ok {
			t.Errorf("%s accepted", doc)
		}
	}
}
