"""Desk-scale laboratory for byzantine asynchronous multi-agent systems.

Finite agent-context simulation with exhaustive enumeration, a
brute-force epistemic oracle, hope-chain evidence machinery and local
fault detectors, glued together by a scenario file format and a CLI.
"""

from .atoms import (
    AtomTimeError, Correct, Faulty, Fake, FakeHappened, Happened, Init,
    Occurred, OccurredCorrectly, eval_atom,
)
from .chains import (
    TrustTable, chains_about, extract_chains, max_disjoint, threshold_witness,
)
from .detect import (
    BeliefReport, DetectionInput, belief_who_is_faulty, cross_check,
    dir_notif_faulty, dir_obs_faulty, group_occurrence_belief,
    self_check_faulty,
)
from .engine import (
    AgentContext, CapExceeded, count_choice_tree, enumerate_runs, seeded_run,
    step,
)
from .formulas import (
    Always, And, Atom, Believe, Formula, Hope, Implies, Know, Not, Or,
    group_occurrence_formula, is_syntactically_persistent, nested_hope,
    parse_formula, unparse,
)
from .haps import (
    ByzAction, ByzEvent, External, GExternal, GRecv, GSend, GlobalState, Go,
    Hib, LocalHistory, Recv, Run, Send, Sleep, fail, initial_state,
)
from .oracle import InterpretedSystem
from .protocols import (
    AgentProtocol, EnvProtocol, Rule, check_closure_properties,
    check_t_coherent, close_menu,
)
from .scenario import Scenario, load_scenario
from .serial import InputError
from .trace import read_trace, trace_lines, write_trace

__version__ = "0.1.0"
