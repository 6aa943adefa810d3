package health

import "sort"

// ComponentState reports one component's current state (Healthy for
// unknown components, matching the "no rule judges it" reading).
func (e *Engine) ComponentState(name string) State {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.components[name]; ok {
		return c.state
	}
	return Healthy
}

// Components lists the distinct components named by the rules, sorted.
func (rs *RuleSet) Components() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rs.Rules {
		if !seen[r.Component] {
			seen[r.Component] = true
			out = append(out, r.Component)
		}
	}
	sort.Strings(out)
	return out
}
