# The CLI cases of the tier1 workflow's byte-determinism steps. Each step
# defines `run_case NAME ARGS...`, which runs `python -m dephchain.cli ARGS`
# its own way, and then sources this file.
for kind in evolve steady correlation-map concurrence-scan fock-quench robustness-aa robustness-int; do
  run_case "$kind" "$kind"
done
# The dynamical scan reaches the steady-state kernel on sectors up to N = 9.
run_case concurrence-scan-dynamical concurrence-scan --override scan.dynamical=true
# A centred trap at N = 9: the steady state lies in the trapped odd-mode sectors.
run_case steady-trapped steady --override lattice.n_sites=9 --override lattice.trap_amplitude=2.0 \
  --override 'initial_state.bitstring="111100000"'
# Interaction at N = 7 on a uniform grid: one expm_multiply call, one step between samples.
run_case evolve-interacting evolve --override lattice.n_sites=7 --override lattice.interaction=0.3 \
  --override 'initial_state.type="fock"' --override 'initial_state.bitstring="1010101"' \
  --override 'observables=["corr:1,7","charge","number"]' --override time_grid.num=201
# The same on a t = 0 sample and unequal steps: one expm_multiply call on all the steps.
run_case evolve-interacting-steps evolve --override lattice.n_sites=7 \
  --override lattice.interaction=0.3 --override 'initial_state.type="fock"' \
  --override 'initial_state.bitstring="1010101"' \
  --override 'observables=["corr:1,7","charge","number"]' \
  --override 'time_grid.points=[0.0,0.5,2.0,7.5]'
# An input that straddles both reflection sectors: all four orbit pairs on the sparse route.
run_case robustness-int-asym robustness-int --override 'initial_state.bitstring="1101010"'
# Broken reflection with a many-body sector: one sparse identity block on expm_multiply;
# it also reads the purity.
run_case evolve-aa-many-body evolve --override lattice.n_sites=7 --override lattice.aa_amplitude=0.4 \
  --override 'initial_state.type="fock"' --override 'initial_state.bitstring="1010101"' \
  --override 'observables=["corr:1,7","charge","number","purity"]' --override time_grid.num=201
# N = 11 bare: the Slater blocks are too large, so the orbit pairs of 80 and 85 states go sparse.
run_case evolve-n11 evolve --override lattice.n_sites=11 --override 'initial_state.type="fock"' \
  --override 'initial_state.bitstring="10101000000"' --override time_grid.stop=10 \
  --override time_grid.num=101
# The interacting quench: 1201 bare samples streamed from expm_multiply in chunks, one kept.
run_case fock-quench-interacting fock-quench --override lattice.interaction=0.3
# Interaction on every point: all scan points share one expm_multiply call.
run_case robustness-int-sparse robustness-int --override 'scan.values=[0.05,0.2,0.45]'
# A t = 0 sample and unequal steps: the scan's dense pairs stacked across points.
run_case robustness-aa-t0 robustness-aa --override 'scan.times=[0.0,5.0,31.1]'
# A 65-site chain: Fock masks wider than 64 bits stay Python ints.
run_case correlation-map-n65 correlation-map --override lattice.n_sites=65
# Odd-mode weight: mode 2's projector never decays, and the closed form keeps it.
run_case correlation-map-odd correlation-map --override 'initial_state.type="slater"' \
  --override 'initial_state.modes=[1,2]'
# Strong hopping: three particles would bound ||H|| beyond the energy limit, but the
# two-point equation diagonalizes only the one-particle H.
run_case correlation-map-strong-hopping correlation-map --override lattice.tunneling=1e4 \
  --override 'initial_state.type="slater"' --override 'initial_state.modes=[1,3,5]'
# A Slater input: the determinant of the chosen bare modes.
run_case evolve-slater evolve --override 'initial_state.type="slater"' \
  --override 'initial_state.modes=[1,3]'
# The dense route on a late first sample and a step that recurs: three propagators.
run_case evolve-repeated-step evolve --override 'time_grid.points=[0.5,1.0,2.5,3.0]'
# The quench time read from the bare run: the first post-transient peak of |<f1+ fN>|.
run_case fock-quench-auto fock-quench --override 'quench.time="auto"'
# A quench time between two bare samples: one extra step from the last sample before it.
run_case fock-quench-off-grid fock-quench --override quench.time=31.13
# A many-body pair: p11 > 0, so the concurrence's sqrt(p00 p11) term is read; reflection
# broken with d = 35, so the sparse route.
run_case robustness-aa-many-body robustness-aa --override lattice.n_sites=7 \
  --override 'initial_state.type="fock"' --override 'initial_state.bitstring="1010101"' \
  --override 'scan.times=[5.0,31.1]'
