"""ringmpc: client-aided semi-honest two-party computation over Z_2^n.

Building blocks: additive/XOR secret shares (`ring`), a trusted dealer for
Beaver-triple-extension tables and conversion blinds (`dealer`),
single-round N-fan-in gates (`gates`), a round-synchronous execution
fabric with exact bit/round accounting (`engine`), the round-efficient
protocol suite (`protocols`), a privacy-preserving edit-distance
application (`editdist`), and a benchmark CLI (`bench`, `cli`).
"""
from .dealer import (
    B2aMaterial,
    BteTable,
    Dealer,
    MaterialStore,
    Need,
    dump_material,
    load_material,
)
from .engine import CostModel, ExchangeItem, Session, Transcript, parallel
from .errors import (
    CapabilityError,
    DomainError,
    MaterialError,
    MaterialReuseError,
    ProtocolDesyncError,
    RingmpcError,
    ShapeError,
)
from .gates import and_n, fanin_schedule, mult_n, or_n
from .ring import (
    BOOL,
    RingSpec,
    Share,
    SharePair,
    Z8,
    Z16,
    Z32,
    Z64,
    add,
    bit_decompose_local,
    concat_pairs,
    const_add,
    const_mult,
    const_pair,
    neg,
    not_,
    reconst,
    share,
    split_pair,
    sub,
    sub_mirror,
    trivial,
    uniform,
    xor,
)

__version__ = "0.1.0"
