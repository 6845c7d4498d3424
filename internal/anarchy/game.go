// Package anarchy implements the bottleneck routing game of §6.1 (Banner &
// Orda's model specialized to 2-tier Leaf-Spine fabrics): selfish users
// split their leaf-to-leaf demands across spines to minimize their own
// bottleneck (the utilization of the most congested link they use). CONGA
// converges to Nash flows of this game, and Theorem 1 bounds the Price of
// Anarchy — the worst-case ratio of a Nash flow's network bottleneck to
// the coordinated optimum — at 2.
//
// The package computes:
//   - the optimal (coordinated) bottleneck via an LP (internal/lp), and
//   - Nash flows via best-response dynamics, which mirrors how CONGA's
//     leaves independently rebalance toward less-congested paths.
package anarchy

import (
	"fmt"
	"math"

	"conga/internal/lp"
	"conga/internal/sim"
)

// User is one leaf-to-leaf traffic demand.
type User struct {
	Src, Dst int
	Demand   float64
}

// Instance is a bottleneck routing game on a complete bipartite Leaf-Spine
// network with arbitrary link capacities.
type Instance struct {
	Leaves, Spines int
	// CapUp[l][s] is the capacity of the leaf-l → spine-s link; CapDown
	// [s][l] of spine-s → leaf-l. A zero capacity removes the link.
	CapUp   [][]float64
	CapDown [][]float64
	Users   []User
}

// Uniform returns an instance with all links at capacity c.
func Uniform(leaves, spines int, c float64, users []User) *Instance {
	in := &Instance{Leaves: leaves, Spines: spines, Users: users}
	in.CapUp = make([][]float64, leaves)
	for l := range in.CapUp {
		in.CapUp[l] = make([]float64, spines)
		for s := range in.CapUp[l] {
			in.CapUp[l][s] = c
		}
	}
	in.CapDown = make([][]float64, spines)
	for s := range in.CapDown {
		in.CapDown[s] = make([]float64, leaves)
		for l := range in.CapDown[s] {
			in.CapDown[s][l] = c
		}
	}
	return in
}

// Validate reports the first structural error.
func (in *Instance) Validate() error {
	if in.Leaves < 2 || in.Spines < 1 {
		return fmt.Errorf("anarchy: need ≥2 leaves and ≥1 spine")
	}
	if len(in.CapUp) != in.Leaves || len(in.CapDown) != in.Spines {
		return fmt.Errorf("anarchy: capacity matrix shape mismatch")
	}
	for _, row := range in.CapUp {
		if len(row) != in.Spines {
			return fmt.Errorf("anarchy: CapUp row length mismatch")
		}
	}
	for _, row := range in.CapDown {
		if len(row) != in.Leaves {
			return fmt.Errorf("anarchy: CapDown row length mismatch")
		}
	}
	for i, u := range in.Users {
		if u.Src < 0 || u.Src >= in.Leaves || u.Dst < 0 || u.Dst >= in.Leaves || u.Src == u.Dst {
			return fmt.Errorf("anarchy: user %d has invalid endpoints", i)
		}
		if u.Demand <= 0 {
			return fmt.Errorf("anarchy: user %d has non-positive demand", i)
		}
	}
	return nil
}

// Flow is a routing: Flow[u][s] is user u's traffic through spine s.
type Flow [][]float64

// linkLoads accumulates per-link flow.
func (in *Instance) linkLoads(f Flow) (up [][]float64, down [][]float64) {
	up = make([][]float64, in.Leaves)
	for l := range up {
		up[l] = make([]float64, in.Spines)
	}
	down = make([][]float64, in.Spines)
	for s := range down {
		down[s] = make([]float64, in.Leaves)
	}
	for u, user := range in.Users {
		for s, v := range f[u] {
			up[user.Src][s] += v
			down[s][user.Dst] += v
		}
	}
	return up, down
}

func util(load, cap float64) float64 {
	if cap <= 0 {
		if load > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return load / cap
}

// Bottleneck returns the network bottleneck B(f): the maximum link
// utilization.
func (in *Instance) Bottleneck(f Flow) float64 {
	up, down := in.linkLoads(f)
	b := 0.0
	for l := range up {
		for s, v := range up[l] {
			if u := util(v, in.CapUp[l][s]); u > b {
				b = u
			}
		}
	}
	for s := range down {
		for l, v := range down[s] {
			if u := util(v, in.CapDown[s][l]); u > b {
				b = u
			}
		}
	}
	return b
}

// UserBottleneck returns b_u(f): the max utilization among links user u
// actually uses.
func (in *Instance) UserBottleneck(f Flow, u int) float64 {
	up, down := in.linkLoads(f)
	user := in.Users[u]
	b := 0.0
	for s, v := range f[u] {
		if v <= 1e-12 {
			continue
		}
		if x := util(up[user.Src][s], in.CapUp[user.Src][s]); x > b {
			b = x
		}
		if x := util(down[s][user.Dst], in.CapDown[s][user.Dst]); x > b {
			b = x
		}
	}
	return b
}

// OptimalBottleneck computes min over feasible flows of the network
// bottleneck via LP, returning the optimum flow as well.
func (in *Instance) OptimalBottleneck() (Flow, float64, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	nU := len(in.Users)
	nS := in.Spines
	// Variables: f[u][s] (u·nS of them), then B.
	nVar := nU*nS + 1
	idx := func(u, s int) int { return u*nS + s }
	bIdx := nVar - 1

	p := &lp.Problem{C: make([]float64, nVar)}
	p.C[bIdx] = -1 // maximize −B ⇔ minimize B

	// Demand satisfaction: Σ_s f[u][s] = γ_u.
	for u, user := range in.Users {
		row := make([]float64, nVar)
		for s := 0; s < nS; s++ {
			row[idx(u, s)] = 1
		}
		p.A = append(p.A, row)
		p.B = append(p.B, user.Demand)
		p.Eq = append(p.Eq, true)
	}
	// Uplink capacities: Σ_{u: src=l} f[u][s] − B·c ≤ 0; zero-capacity
	// links force f = 0.
	addCap := func(users []int, cap float64) {
		row := make([]float64, nVar)
		any := false
		for _, v := range users {
			row[v] = 1
			any = true
		}
		if !any {
			return
		}
		if cap > 0 {
			row[bIdx] = -cap
		}
		p.A = append(p.A, row)
		p.B = append(p.B, 0)
		p.Eq = append(p.Eq, false)
	}
	for l := 0; l < in.Leaves; l++ {
		for s := 0; s < nS; s++ {
			var vars []int
			for u, user := range in.Users {
				if user.Src == l {
					vars = append(vars, idx(u, s))
				}
			}
			addCap(vars, in.CapUp[l][s])
		}
	}
	for s := 0; s < nS; s++ {
		for l := 0; l < in.Leaves; l++ {
			var vars []int
			for u, user := range in.Users {
				if user.Dst == l {
					vars = append(vars, idx(u, s))
				}
			}
			addCap(vars, in.CapDown[s][l])
		}
	}

	x, _, err := lp.Solve(p)
	if err != nil {
		return nil, 0, err
	}
	f := make(Flow, nU)
	for u := range f {
		f[u] = make([]float64, nS)
		for s := 0; s < nS; s++ {
			f[u][s] = x[idx(u, s)]
		}
	}
	return f, in.Bottleneck(f), nil
}

// NashOptions tunes best-response dynamics.
type NashOptions struct {
	// Seed randomizes the initial flow; 0 starts from single-path
	// assignments (each user entirely on its first usable spine), which
	// tends to find worse equilibria — useful for stressing the PoA.
	Seed uint64
}

// nashMaxRounds bounds the best-response sweeps; a sweep that improves no
// user's bottleneck by more than nashTol ends them.
const (
	nashMaxRounds = 500
	nashTol       = 1e-6
)

// Nash runs best-response dynamics to (approximate) Nash equilibrium and
// returns the flow and its network bottleneck.
func (in *Instance) Nash(opt NashOptions) (Flow, float64, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	nU := len(in.Users)
	f := make(Flow, nU)
	var rng *sim.Rand
	if opt.Seed != 0 {
		rng = sim.NewRand(opt.Seed)
	}
	for u, user := range in.Users {
		f[u] = make([]float64, in.Spines)
		usable := in.usableSpines(user)
		if len(usable) == 0 {
			return nil, 0, fmt.Errorf("anarchy: user %d has no usable path", u)
		}
		if rng == nil {
			f[u][usable[0]] = user.Demand
		} else {
			// Random split over usable spines.
			weights := make([]float64, len(usable))
			total := 0.0
			for i := range weights {
				weights[i] = rng.Float64()
				total += weights[i]
			}
			for i, s := range usable {
				f[u][s] = user.Demand * weights[i] / total
			}
		}
	}

	for round := 0; round < nashMaxRounds; round++ {
		improved := false
		for u := range in.Users {
			before := in.UserBottleneck(f, u)
			newSplit, after := in.bestResponse(f, u)
			if after < before-nashTol {
				f[u] = newSplit
				improved = true
			}
		}
		if !improved {
			return f, in.Bottleneck(f), nil
		}
	}
	return f, in.Bottleneck(f), nil
}

func (in *Instance) usableSpines(u User) []int {
	var out []int
	for s := 0; s < in.Spines; s++ {
		if in.CapUp[u.Src][s] > 0 && in.CapDown[s][u.Dst] > 0 {
			out = append(out, s)
		}
	}
	return out
}

// bestResponse computes user u's bottleneck-minimizing split against the
// other users' fixed flows, by bisection on the achievable bottleneck.
func (in *Instance) bestResponse(f Flow, u int) ([]float64, float64) {
	user := in.Users[u]
	up, down := in.linkLoads(f)
	// Remove u's own contribution.
	otherUp := make([]float64, in.Spines)
	otherDown := make([]float64, in.Spines)
	for s := 0; s < in.Spines; s++ {
		otherUp[s] = up[user.Src][s] - f[u][s]
		otherDown[s] = down[s][user.Dst] - f[u][s]
	}
	usable := in.usableSpines(user)

	// capacityAt(B) = how much u can route while keeping each of its
	// links at utilization ≤ B.
	room := func(s int, b float64) float64 {
		r := math.Min(
			b*in.CapUp[user.Src][s]-otherUp[s],
			b*in.CapDown[s][user.Dst]-otherDown[s])
		if r < 0 {
			return 0
		}
		return r
	}
	capacityAt := func(b float64) float64 {
		total := 0.0
		for _, s := range usable {
			total += room(s, b)
		}
		return total
	}

	lo, hi := 0.0, 1.0
	for capacityAt(hi) < user.Demand {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if capacityAt(mid) >= user.Demand {
			hi = mid
		} else {
			lo = mid
		}
	}
	b := hi
	// Assign demand proportionally to room at the achieved bottleneck, so
	// every used link sits at utilization ≤ b.
	split := make([]float64, in.Spines)
	total := capacityAt(b)
	if total <= 0 {
		return f[u], in.UserBottleneck(f, u)
	}
	remaining := user.Demand
	for _, s := range usable {
		v := room(s, b) / total * user.Demand
		if v > remaining {
			v = remaining
		}
		split[s] = v
		remaining -= v
	}
	// Numerical slack: dump any residue on the roomiest spine.
	if remaining > 1e-12 {
		best, bestRoom := usable[0], -1.0
		for _, s := range usable {
			if r := room(s, b); r > bestRoom {
				bestRoom, best = r, s
			}
		}
		split[best] += remaining
	}
	// Evaluate the achieved bottleneck for the candidate split.
	g := make(Flow, len(f))
	copy(g, f)
	g[u] = split
	return split, in.UserBottleneck(g, u)
}

// PoA computes the Price of Anarchy for the instance: the worst Nash
// bottleneck found over the provided seeds divided by the optimal
// bottleneck.
func (in *Instance) PoA(seeds []uint64) (float64, error) {
	_, opt, err := in.OptimalBottleneck()
	if err != nil {
		return 0, err
	}
	if opt <= 0 {
		return 1, nil
	}
	worst := 0.0
	for _, seed := range seeds {
		_, b, err := in.Nash(NashOptions{Seed: seed})
		if err != nil {
			return 0, err
		}
		if b > worst {
			worst = b
		}
	}
	return worst / opt, nil
}
