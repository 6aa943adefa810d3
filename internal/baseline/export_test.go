package baseline

// SetDown marks a server crashed (both networks unreachable).
func (n *Network) SetDown(s string, down bool) {
	if down {
		n.down[s] = true
	} else {
		delete(n.down, s)
	}
}
