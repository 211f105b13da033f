"""Don't-care transition and Trojan detection for synchronous circuits.

The toolkit models a circuit as a Mealy machine over a small expression
IR, explores it with bounded symbolic execution backed by an internal
bit-blasting SAT core, and flags transitions that leave states no honest
run can reach, plus any payload behavior hidden behind them.
"""

from .circuit import (Circuit, Register, StateSpec, decode_state,
                      encode_state, make_state_spec, print_rtl, validate,
                      validation_errors)
from .blif import parse_blif
from .detect import (DctReport, DctWitness, TrojanReport, Verdict,
                     compute_dct, detect_trojan, diff_behaviors,
                     oracle_analyze, oracle_dct, replay_dct_witness)
from .engine import (FIXPOINT, Behavior, ExploreConfig, Kind, Metadata, Mode,
                     SymState, explore, project, reset_state, step_cycle,
                     symbolic_state)
from .errors import (CapExceeded, CombinationalCycle, DctForgeError,
                     DuplicateName, InfeasibleParams, InvalidCircuit,
                     ParseError, PathExplosion, ResourceOut,
                     TooLargeForOracle, UndrivenSignal, UnknownOutput,
                     UnknownSignal, UnsupportedDirective, WidthMismatch)
from .rtl import parse_rtl
from .sat import SatOutcome, check_sat
from .cnf import CnfFormula, bit_blast
from .solve import all_values, min_value
from .trojanlab import (PayloadSpec, StuckAt, TriggerSpec, gen_random_fsm,
                        inject_trojan)
from .expr import simplify

__version__ = "0.1.0"
