package transport

import "io"

// BoundAddr extracts the resolved address from a listener returned by
// HTTP.Listen; it returns "" for other listener types.
func BoundAddr(c io.Closer) string {
	if l, ok := c.(*httpListener); ok {
		return l.addr
	}
	return ""
}
