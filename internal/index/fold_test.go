package index

import (
	"strings"
	"testing"
	"unicode"
)

// TestFoldRuneOrbits checks the fold over every rune: all members of a
// unicode.SimpleFold orbit fold alike (so an access key built with Fold is
// never finer than strings.EqualFold), folding is idempotent (a group name
// folded twice is the same group), and ASCII folds as unicode.ToLower (so
// ASCII keys, group names and goldens are unchanged).
func TestFoldRuneOrbits(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		want := FoldRune(r)
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if got := FoldRune(f); got != want {
				t.Fatalf("FoldRune(%U) = %U, but FoldRune(%U) = %U in the same orbit", f, got, r, want)
			}
		}
		if again := FoldRune(want); again != want {
			t.Fatalf("FoldRune(%U) = %U, which folds again to %U", r, want, again)
		}
		if r < 0x80 && want != unicode.ToLower(r) {
			t.Fatalf("FoldRune(%q) = %q, want unicode.ToLower's %q", r, want, unicode.ToLower(r))
		}
	}
}

func TestFold(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", ""},
		{"hamilton.news", "hamilton.news"},
		{"Hamilton.NewS", "hamilton.news"},
		{"Hamilton.Newſ", "hamilton.news"},
		{"\u212aelvin", "kelvin"}, // the Kelvin sign
		{"ΣΟΦΟΣ", "σοφοσ"},
		{"σοφος", "σοφοσ"},
		{"Μµμ", "µµµ"},
		{"\xff", "\ufffd"}, // invalid UTF-8, as strings.Map and strings.EqualFold read it
	} {
		if got := Fold(tc.in); got != tc.want {
			t.Errorf("Fold(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if got := Tokenize("Newſ ſtraße"); strings.Join(got, " ") != "news straße" {
		t.Errorf("Tokenize folds runes as Fold does: got %q", got)
	}
}

// TestFoldASCIIAllocs pins Fold's ASCII path to strings.ToLower's: no
// allocation when there is nothing to lower.
func TestFoldASCIIAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = Fold("hamilton.news") }); n != 0 {
		t.Errorf("Fold of lower-case ASCII allocates %v times, want 0", n)
	}
}
