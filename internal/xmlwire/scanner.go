// Package xmlwire is the reflection-free XML codec under the wire path: a
// non-allocating Scanner that walks an XML document in place, and a Writer
// that appends one into an exactly sized buffer. internal/protocol,
// internal/event and internal/delivery put their hot message types on it;
// encoding/xml stays beside it as the decoder of everything else.
//
// The Scanner understands a deliberately small dialect — the canonical form
// the Writer (and encoding/xml's Marshal) emits, plus plain well-formed
// element/text XML with the five predefined and numeric character
// references. On anything else (namespaces, comments, CDATA, processing
// instructions other than the XML declaration, '\r', self-closing tags where
// a typed field is expected, nesting beyond a small fixed stack, or simply
// malformed input) it latches a failure and Done reports false; the caller
// then hands the whole input to encoding/xml, which either decodes it or
// produces the error. The Scanner therefore never reports errors of its own,
// and never accepts a document encoding/xml would reject or read differently
// (docs/WIRE.md).
package xmlwire

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// Header is the XML declaration canonical documents start with
// (encoding/xml's Header constant).
const Header = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// maxDepth bounds element nesting. The deepest canonical message (a repl.wal
// item carrying a composite notification's contributing events) nests 14
// elements below its payload root.
const maxDepth = 32

// span is a half-open byte range of the Scanner's input.
type span struct{ lo, hi int }

// A Scanner walks one XML document. It is a value meant to live on the
// caller's stack; everything it returns aliases the input except where
// noted. Its methods never fail individually: the first construct outside
// the dialect latches a failure, after which every method returns a zero
// value, and Done reports the verdict for the whole document.
type Scanner struct {
	buf []byte
	pos int
	bad bool

	// stack holds the names of the open elements, innermost last, for
	// end-tag matching.
	stack [maxDepth]span
	depth int

	// The last start tag read: how many attributes it carried, the first
	// of them, whether it was self-closing, and whether a typed caller has
	// yet to claim its attributes.
	nattr       int
	attrName    span
	attrValue   span
	attrSaved   int // bytes unescaping the value saves
	selfClosing bool
	attrPending bool

	// scratch receives text that had to be unescaped.
	scratch []byte
}

// NewScanner returns a Scanner positioned at the start of doc.
func NewScanner(doc []byte) Scanner { return Scanner{buf: doc} }

// Reject latches the failure: the caller met an element it does not
// understand.
func (s *Scanner) Reject() { s.bad = true }

// Done reports whether the whole document was consumed and understood. It
// must be called after the loop over the root's children has ended.
func (s *Scanner) Done() bool {
	return !s.bad && s.depth == 0 && s.pos == len(s.buf)
}

// Root consumes an optional XML declaration and the start tag of the
// document element, which must be <name> without attributes.
func (s *Scanner) Root(name string) {
	if bytes.HasPrefix(s.buf, []byte(Header)) {
		s.pos = len(Header)
	}
	s.skipSpace()
	s.startTag()
	if s.bad || s.selfClosing || s.attrPending || string(s.Name()) != name {
		s.bad = true
	}
}

// Next advances to the next child element of the current element, skipping
// white space between elements. It returns false once it has consumed the
// current element's end tag. After a true result the caller must consume the
// child: with one of the content methods (Text, String, Raw, ...) or with a
// Next loop of its own.
func (s *Scanner) Next() bool {
	if s.bad || s.attrPending || s.depth == 0 {
		s.bad = true
		return false
	}
	s.skipSpace()
	if s.pos+1 < len(s.buf) && s.buf[s.pos] == '<' && s.buf[s.pos+1] == '/' {
		s.endTag()
		return false
	}
	s.startTag()
	if s.selfClosing {
		// <a/> where a typed field is expected: whether encoding/xml
		// reads its inner XML as nil or empty depends on context.
		s.bad = true
	}
	return !s.bad
}

// Name returns the name of the current element.
func (s *Scanner) Name() []byte {
	if s.bad || s.depth == 0 {
		return nil
	}
	n := s.stack[s.depth-1]
	return s.buf[n.lo:n.hi]
}

// AttrString claims the current element's only attribute, which must be
// called name, and returns its unescaped value. An element whose attributes
// go unclaimed fails the scan.
func (s *Scanner) AttrString(name string) string {
	if s.bad || s.nattr != 1 || string(s.buf[s.attrName.lo:s.attrName.hi]) != name {
		s.bad = true
		return ""
	}
	s.attrPending = false
	return string(s.unescaped(s.attrValue, s.attrSaved))
}

// textElement consumes the current element, whose content must be character
// data only, and returns the raw text's range and how many bytes unescaping
// it saves.
func (s *Scanner) textElement() (t span, saved int) {
	if s.attrPending {
		s.bad = true
	}
	lo := s.pos
	saved = s.text(0)
	t = span{lo, s.pos}
	s.endTag()
	return t, saved
}

// Text consumes the current element, whose content must be character data
// only, and returns it unescaped. The result aliases the input or the
// Scanner's scratch buffer: it is valid until the next call that returns
// text.
func (s *Scanner) Text() []byte {
	t, saved := s.textElement()
	if s.bad {
		return nil
	}
	return s.unescaped(t, saved)
}

// String is Text as a freshly allocated string.
func (s *Scanner) String() string { return string(s.Text()) }

// Bytes is Text as a freshly allocated, never nil slice — what encoding/xml
// stores into a []byte field.
func (s *Scanner) Bytes() []byte {
	t, saved := s.textElement()
	if s.bad {
		return nil
	}
	return appendUnescaped(make([]byte, 0, t.hi-t.lo-saved), s.buf[t.lo:t.hi])
}

// The numeric and boolean content methods mirror encoding/xml's conversion
// of element text: empty means zero, otherwise strconv on the trimmed text,
// and a text strconv rejects fails the scan.

// Int consumes the current element as an int.
func (s *Scanner) Int() int { return int(s.parseInt(strconv.IntSize)) }

// Int64 consumes the current element as an int64.
func (s *Scanner) Int64() int64 { return s.parseInt(64) }

func (s *Scanner) parseInt(bits int) int64 {
	t := s.Text()
	if len(t) == 0 {
		return 0
	}
	v, err := strconv.ParseInt(string(bytes.TrimSpace(t)), 10, bits)
	if err != nil {
		s.bad = true
	}
	return v
}

// Uint64 consumes the current element as a uint64.
func (s *Scanner) Uint64() uint64 {
	t := s.Text()
	if len(t) == 0 {
		return 0
	}
	v, err := strconv.ParseUint(string(bytes.TrimSpace(t)), 10, 64)
	if err != nil {
		s.bad = true
	}
	return v
}

// Float64 consumes the current element as a float64.
func (s *Scanner) Float64() float64 {
	t := s.Text()
	if len(t) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(string(bytes.TrimSpace(t)), 64)
	if err != nil {
		s.bad = true
	}
	return v
}

// Bool consumes the current element as a bool.
func (s *Scanner) Bool() bool {
	t := s.Text()
	if len(t) == 0 {
		return false
	}
	v, err := strconv.ParseBool(string(bytes.TrimSpace(t)))
	if err != nil {
		s.bad = true
	}
	return v
}

// Raw consumes the current element and returns its inner XML verbatim — a
// sub-slice of the input, never nil — after checking that it is well formed
// within the dialect: names match, text and attribute values are valid, and
// nothing the Scanner does not understand occurs. No token is built.
func (s *Scanner) Raw() []byte {
	if s.bad || s.attrPending {
		s.bad = true
		return nil
	}
	base := s.depth
	lo := s.pos
	for {
		s.text(0)
		hi := s.pos
		if s.bad {
			return nil
		}
		if s.pos+1 < len(s.buf) && s.buf[s.pos+1] == '/' {
			s.endTag()
			if s.bad {
				return nil
			}
			if s.depth < base {
				return s.buf[lo:hi:hi]
			}
			continue
		}
		s.startTag()
		s.attrPending = false
		if s.selfClosing && !s.bad {
			s.depth--
		}
	}
}

func (s *Scanner) skipSpace() {
	for s.pos < len(s.buf) && (s.buf[s.pos] == ' ' || s.buf[s.pos] == '\n' || s.buf[s.pos] == '\t') {
		s.pos++
	}
}

// name consumes an element or attribute name: ASCII letters, digits, '_',
// '.', '-', not starting with a digit, '.' or '-'. A colon (a namespace
// prefix) or a non-ASCII name ends the name early and so fails the caller's
// next check.
func (s *Scanner) name() span {
	lo := s.pos
	for s.pos < len(s.buf) && class[s.buf[s.pos]]&nameByte != 0 {
		s.pos++
	}
	if s.pos == lo || class[s.buf[lo]]&nameStart == 0 {
		s.bad = true
	}
	return span{lo, s.pos}
}

// startTag consumes `<name attr="value" ...>` or its self-closing form at
// s.pos and pushes the element; the caller pops a self-closing one.
func (s *Scanner) startTag() {
	if s.bad || s.pos >= len(s.buf) || s.buf[s.pos] != '<' || s.depth == maxDepth {
		s.bad = true
		return
	}
	s.pos++
	s.stack[s.depth] = s.name()
	s.depth++
	s.nattr, s.selfClosing = 0, false
	for !s.bad {
		spaced := s.pos
		s.skipSpace()
		spaced = s.pos - spaced
		if s.pos >= len(s.buf) {
			break
		}
		switch c := s.buf[s.pos]; {
		case c == '>':
			s.pos++
			s.attrPending = s.nattr > 0
			return
		case c == '/' && s.pos+1 < len(s.buf) && s.buf[s.pos+1] == '>':
			s.pos += 2
			s.selfClosing = true
			s.attrPending = s.nattr > 0
			return
		case spaced == 0:
			s.bad = true
		default:
			s.attribute()
		}
	}
	s.bad = true
}

// attribute consumes `name="value"` (either quote) at s.pos.
func (s *Scanner) attribute() {
	name := s.name()
	if s.bad || s.pos+1 >= len(s.buf) || s.buf[s.pos] != '=' ||
		(s.buf[s.pos+1] != '"' && s.buf[s.pos+1] != '\'') ||
		string(s.buf[name.lo:name.hi]) == "xmlns" {
		s.bad = true
		return
	}
	quote := s.buf[s.pos+1]
	s.pos += 2
	lo := s.pos
	saved := s.text(quote)
	if s.bad {
		return
	}
	if s.nattr == 0 {
		s.attrName, s.attrValue, s.attrSaved = name, span{lo, s.pos}, saved
	}
	s.nattr++
	s.pos++ // closing quote
}

// endTag consumes `</name>` at s.pos, which must close the innermost open
// element.
func (s *Scanner) endTag() {
	if s.bad || s.depth == 0 {
		s.bad = true
		return
	}
	open := s.stack[s.depth-1]
	n := open.hi - open.lo
	end := s.pos + 2 + n
	if end >= len(s.buf) || s.buf[s.pos] != '<' || s.buf[s.pos+1] != '/' || s.buf[end] != '>' ||
		!bytes.Equal(s.buf[s.pos+2:end], s.buf[open.lo:open.hi]) {
		s.bad = true
		return
	}
	s.pos = end + 1
	s.depth--
}

// text validates character data from s.pos up to the next '<' (quote == 0)
// or up to the closing quote of an attribute value, leaves s.pos on that
// terminator, and reports how many bytes replacing the run's character
// references saves (a reference is always longer than its character, so 0
// means there are none). Running into the end of the input fails the scan:
// every text run of a complete document is followed by a tag.
func (s *Scanner) text(quote byte) (saved int) {
	if s.bad {
		return 0
	}
	buf, i := s.buf, s.pos
	for i < len(buf) {
		c := buf[i]
		if class[c]&plain != 0 {
			i++
			continue
		}
		switch {
		case c == '<':
			if quote != 0 {
				s.bad = true // encoding/xml refuses '<' inside a value
			}
			s.pos = i
			return saved
		case c == '"' || c == '\'':
			if c == quote {
				s.pos = i
				return saved
			}
			i++
		case c == '&':
			r, n := reference(buf[i:])
			if n == 0 {
				s.bad = true
				return 0
			}
			saved += n - utf8.RuneLen(r)
			i += n
		case c == '>':
			if i >= 2 && buf[i-1] == ']' && buf[i-2] == ']' {
				s.bad = true // "]]>": an error in text, and not worth telling apart in a value
				return 0
			}
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(buf[i:])
			if r == utf8.RuneError && size == 1 || r == 0xFFFE || r == 0xFFFF {
				s.bad = true
				return 0
			}
			i += size
		default:
			// A control character; '\r' among them, which
			// encoding/xml would rewrite to '\n'.
			s.bad = true
			return 0
		}
	}
	s.bad = true
	return 0
}

// unescaped returns the text of t, through the scratch buffer if it contains
// character references.
func (s *Scanner) unescaped(t span, saved int) []byte {
	if saved == 0 {
		return s.buf[t.lo:t.hi]
	}
	s.scratch = appendUnescaped(s.scratch[:0], s.buf[t.lo:t.hi])
	return s.scratch
}

// reference parses the character reference at b[0] == '&' and returns the
// character and the reference's length; n == 0 for anything but the five
// predefined entities and numeric references to characters XML allows.
func reference(b []byte) (r rune, n int) {
	switch {
	case bytes.HasPrefix(b, []byte("&lt;")):
		return '<', 4
	case bytes.HasPrefix(b, []byte("&gt;")):
		return '>', 4
	case bytes.HasPrefix(b, []byte("&amp;")):
		return '&', 5
	case bytes.HasPrefix(b, []byte("&#")):
		i, base := 2, rune(10)
		if len(b) > 2 && b[2] == 'x' {
			i, base = 3, 16
		}
		digits := i
		for ; i < len(b); i++ {
			var d rune
			switch c := b[i]; {
			case '0' <= c && c <= '9':
				d = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				d = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				d = rune(c-'A') + 10
			default:
				d = -1
			}
			if d < 0 {
				break
			}
			if r = r*base + d; r > utf8.MaxRune {
				return 0, 0
			}
		}
		if i == digits || i == len(b) || b[i] != ';' || !inCharacterRange(r) {
			return 0, 0
		}
		return r, i + 1
	case bytes.HasPrefix(b, []byte("&apos;")):
		return '\'', 6
	case bytes.HasPrefix(b, []byte("&quot;")):
		return '"', 6
	}
	return 0, 0
}

// appendUnescaped appends src with its character references replaced. src
// has passed Scanner.text, so every '&' starts a valid reference.
func appendUnescaped(dst, src []byte) []byte {
	for {
		i := bytes.IndexByte(src, '&')
		if i < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:i]...)
		r, n := reference(src[i:])
		dst = utf8.AppendRune(dst, r)
		src = src[i+n:]
	}
}

// inCharacterRange is the Char production of XML 1.0 §2.2.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Byte classes.
const (
	verbatim  = 1 << iota // printable ASCII the Writer copies as it stands: all but < > & " '
	plain                 // text byte the Scanner passes without a look: verbatim, plus \t \n
	nameStart             // may start a name
	nameByte              // may continue a name
)

var class = func() (t [256]byte) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = verbatim | plain
	}
	for _, c := range `<>&"'` {
		t[c] = 0
	}
	t['\t'], t['\n'] = plain, plain
	for c := 'a'; c <= 'z'; c++ {
		t[c] |= nameStart | nameByte
		t[c-'a'+'A'] |= nameStart | nameByte
	}
	t['_'] |= nameStart | nameByte
	for _, c := range "0123456789.-" {
		t[c] |= nameByte
	}
	return t
}()
