package xmlwire

import (
	"strconv"
	"unicode/utf8"
)

// A Writer builds an XML document in two passes over the same encoding
// code: the zero Writer only measures what it is given; after Alloc it
// appends into a buffer of exactly the measured size, so a document costs
// one allocation however it nests.
//
//	var w xmlwire.Writer
//	v.writeXML(&w)
//	w.Alloc()
//	v.writeXML(&w)
//	return w.Bytes()
//
// Text is escaped exactly as encoding/xml escapes it, so a type that moves
// from xml.Marshal to a Writer keeps its bytes.
type Writer struct {
	buf []byte
	n   int
}

// Alloc ends the measuring pass: the Writer now appends into a buffer sized
// by what it measured.
func (w *Writer) Alloc() { w.buf = make([]byte, 0, w.n) }

// Bytes returns the document built since Alloc.
func (w *Writer) Bytes() []byte { return w.buf }

// Markup appends s verbatim: tags and other literal markup.
func (w *Writer) Markup(s string) {
	if w.buf == nil {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

// Raw appends pre-marshalled XML verbatim.
func (w *Writer) Raw(b []byte) {
	if w.buf == nil {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// String appends s as escaped character data.
func (w *Writer) String(s string) {
	if w.buf == nil {
		w.n += escapedLen(s)
		return
	}
	w.buf = appendEscaped(w.buf, s)
}

// Text appends b as escaped character data.
func (w *Writer) Text(b []byte) {
	if w.buf == nil {
		w.n += escapedLen(b)
		return
	}
	w.buf = appendEscaped(w.buf, b)
}

// Int appends v in decimal.
func (w *Writer) Int(v int64) {
	var tmp [20]byte
	w.Raw(strconv.AppendInt(tmp[:0], v, 10))
}

// Open appends <name>.
func (w *Writer) Open(name string) {
	w.Markup("<")
	w.Markup(name)
	w.Markup(">")
}

// Close appends </name>.
func (w *Writer) Close(name string) {
	w.Markup("</")
	w.Markup(name)
	w.Markup(">")
}

// Element appends <name>s</name> with s escaped.
func (w *Writer) Element(name, s string) {
	w.Open(name)
	w.String(s)
	w.Close(name)
}

// OptElement is Element unless s is empty (encoding/xml's omitempty).
func (w *Writer) OptElement(name, s string) {
	if s != "" {
		w.Element(name, s)
	}
}

// RawElement appends <name>raw</name> with raw verbatim.
func (w *Writer) RawElement(name string, raw []byte) {
	w.Open(name)
	w.Raw(raw)
	w.Close(name)
}

// IntElement appends <name>v</name>.
func (w *Writer) IntElement(name string, v int64) {
	w.Open(name)
	w.Int(v)
	w.Close(name)
}

// The escapes encoding/xml's EscapeText writes.
const (
	escQuot = "&#34;"
	escApos = "&#39;"
	escAmp  = "&amp;"
	escLT   = "&lt;"
	escGT   = "&gt;"
	escTab  = "&#x9;"
	escNL   = "&#xA;"
	escCR   = "&#xD;"
	escFFFD = "\uFFFD"
)

// escapeOf returns the replacement of the character starting at s[i] and the
// character's width; esc == "" means it is written as it stands. Characters
// XML cannot carry, and invalid UTF-8, become U+FFFD.
func escapeOf[T ~string | ~[]byte](s T, i int) (esc string, width int) {
	c := s[i]
	if c < utf8.RuneSelf {
		switch c {
		case '"':
			return escQuot, 1
		case '\'':
			return escApos, 1
		case '&':
			return escAmp, 1
		case '<':
			return escLT, 1
		case '>':
			return escGT, 1
		case '\t':
			return escTab, 1
		case '\n':
			return escNL, 1
		case '\r':
			return escCR, 1
		}
		if c < 0x20 {
			return escFFFD, 1
		}
		return "", 1
	}
	var tmp [utf8.UTFMax]byte
	r, width := utf8.DecodeRune(tmp[:copy(tmp[:], s[i:])])
	if r == utf8.RuneError && width == 1 || r == 0xFFFE || r == 0xFFFF {
		return escFFFD, width
	}
	return "", width
}

func escapedLen[T ~string | ~[]byte](s T) (n int) {
	for i := 0; i < len(s); {
		if class[s[i]]&verbatim != 0 {
			i++
			n++
			continue
		}
		esc, width := escapeOf(s, i)
		if esc == "" {
			n += width
		} else {
			n += len(esc)
		}
		i += width
	}
	return n
}

func appendEscaped[T ~string | ~[]byte](dst []byte, s T) []byte {
	last := 0
	for i := 0; i < len(s); {
		if class[s[i]]&verbatim != 0 {
			i++
			continue
		}
		esc, width := escapeOf(s, i)
		if esc != "" {
			dst = append(dst, s[last:i]...)
			dst = append(dst, esc...)
			last = i + width
		}
		i += width
	}
	return append(dst, s[last:]...)
}
