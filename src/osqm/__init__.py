"""Phase-space quantum mechanics on a grid.

States live as Wigner functions, observables as Weyl symbols, dynamics as
the Moyal-bracket flow, and a coarse graining of phase space supplies the
quasiprojectors driving stochastic region transitions. A dense
Hilbert-space layer cross-checks every phase-space computation.
"""

__version__ = "0.1.0"

from .classical import ClassicalObservable, evolve_region_classically
from .dynamics import Hamiltonian, HamiltonianTerm, evolve_lvn
from .grid import ContainmentError, GridMismatchError, PhaseGrid
from .oracle import (OperatorMatrix, WaveFunction, operator_sqrt, schrodinger_propagate,
                     tensor_state)
from .regions import (Partition, Region, build_partition, classicality_projectors,
                      is_quasirestricted, quasiprojector_defect, quasiprojector_operator)
from .transitions import (ProjectionSchedule, TrajectoryEngine, TrajectoryRecord,
                          apply_quasiprojection, run_ensemble, sample_transition,
                          transition_probabilities, zeno_experiment)
from .weyl import (WeylSymbol, mean_value, moyal_product, weyl_operator_from_symbol,
                   weyl_symbol_from_operator)
from .wigner import (WignerState, coherent_state, marginals, wavefunction_from_wigner,
                     wigner_from_wavefunction)

__all__ = [name for name in dir() if not name.startswith("_")]
