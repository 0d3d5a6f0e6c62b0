"""Golden digests of the interpreter's event stream and final memory.

The :class:`~repro.runtime.interp.Tracer` callbacks are the runtime's
event interface: the cost model, the race detector and the audit's
shadow oracle all observe execution through them. These tests pin the
whole stream — every callback, its order and its arguments — and the
final memory for the paper kernels' primals and adjoints and for a
slice of the audit generator, so any change to how the interpreter
executes must leave both byte-for-byte unchanged.

``ref`` and ``loop`` arguments are keyed by their position in a
preorder walk of the procedure (never by ``id()``), so the digests do
not depend on the process. A ``ref`` that is not a node of the
procedure fails that lookup: the interpreter must hand tracers the
exact AST node, which the cost tracer and the audit's shadow oracle
key on. Run this file as a script to print the current digests.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Tuple

import pytest

from repro import differentiate
from repro.audit.generator import (FAMILIES, RACY_FAMILIES, build_procedure,
                                   generate_case, make_bindings)
from repro.audit.numcheck import adjoint_bindings
from repro.experiments.specs import (gfmc_spec, greengauss_spec,
                                     large_stencil_spec, lbm_spec)
from repro.ir.expr import walk
from repro.ir.stmt import Assign, If, Loop, Pop, Push, walk_stmts
from repro.runtime import Interpreter, Memory, Tracer

STENCIL_STRATEGIES = ("formad", "atomic", "reduction", "preaccumulate",
                      "transposed")
AUDIT_CASES = 20


def node_positions(proc) -> Dict[int, int]:
    """``id(node) -> position`` of every statement and expression node
    in a preorder walk of *proc* (a shared node keeps its first
    position)."""
    positions: Dict[int, int] = {}

    def add(node) -> None:
        positions.setdefault(id(node), len(positions))

    for stmt in walk_stmts(proc.body):
        add(stmt)
        if isinstance(stmt, Assign):
            exprs = (stmt.target, stmt.value)
        elif isinstance(stmt, If):
            exprs = (stmt.cond,)
        elif isinstance(stmt, Loop):
            exprs = (stmt.start, stmt.stop, stmt.step)
        elif isinstance(stmt, Push):
            exprs = (stmt.value,)
        else:
            assert isinstance(stmt, Pop)
            exprs = (stmt.target,)
        for expr in exprs:
            for node in walk(expr):
                add(node)
    return positions


class RecordingTracer(Tracer):
    """Hashes every callback's name and arguments, in order."""

    def __init__(self, proc) -> None:
        self._pos = node_positions(proc)
        self._sha = hashlib.sha256()
        self.events = 0

    def _emit(self, *event) -> None:
        self.events += 1
        self._sha.update(repr(event).encode())
        self._sha.update(b"\n")

    def _key(self, node):
        return None if node is None else self._pos[id(node)]

    def hexdigest(self) -> str:
        return self._sha.hexdigest()

    def on_flop(self, n: int = 1) -> None:
        self._emit("flop", n)

    def on_intrinsic(self, name: str) -> None:
        self._emit("intrinsic", name)

    def on_read(self, array: str, flat: int, ref=None) -> None:
        self._emit("read", array, flat, self._key(ref))

    def on_write(self, array: str, flat: int, *, atomic: bool,
                 ref=None) -> None:
        self._emit("write", array, flat, atomic, self._key(ref))

    def on_scalar_read(self, name: str) -> None:
        self._emit("scalar_read", name)

    def on_scalar_write(self, name: str) -> None:
        self._emit("scalar_write", name)

    def on_push(self) -> None:
        self._emit("push")

    def on_pop(self) -> None:
        self._emit("pop")

    def on_atomic_begin(self, array: str, flat: int) -> None:
        self._emit("atomic_begin", array, flat)

    def on_atomic_end(self) -> None:
        self._emit("atomic_end")

    def on_parallel_loop_begin(self, loop, iterations) -> None:
        self._emit("loop_begin", self._key(loop), list(iterations))

    def on_parallel_iteration_begin(self, loop, value: int) -> None:
        self._emit("iteration_begin", self._key(loop), value)

    def on_parallel_iteration_end(self, loop, value: int) -> None:
        self._emit("iteration_end", self._key(loop), value)

    def on_parallel_loop_end(self, loop) -> None:
        self._emit("loop_end", self._key(loop))


def memory_digest(memory: Memory) -> str:
    """SHA-256 of every array's dtype, shape and bytes and every
    scalar's type and value."""
    sha = hashlib.sha256()
    for name in sorted(memory.arrays):
        data = memory.arrays[name].data
        sha.update(repr((name, data.dtype.str, data.shape)).encode())
        sha.update(data.tobytes())
    for name in sorted(memory.scalars):
        value = memory.scalars[name]
        sha.update(repr((name, type(value).__name__, value)).encode())
    return sha.hexdigest()


def run_digests(proc, bindings) -> Tuple[str, str]:
    """``(event stream, final memory)`` digests of one run."""
    memory = Memory.for_procedure(proc, bindings)
    tracer = RecordingTracer(proc)
    Interpreter(proc, memory, tracer).run()
    assert tracer.events > 0
    return tracer.hexdigest(), memory_digest(memory)


def _kernel(spec_fn, strategy=None):
    def build():
        spec = spec_fn()
        if strategy is None:
            return spec.proc, spec.bindings
        adj = differentiate(spec.proc, spec.independents, spec.dependents,
                            strategy=strategy)
        return adj.procedure, adjoint_bindings(
            adj, spec.bindings, spec.independents, spec.dependents, seed=0)
    return build


def _audit_case(k: int, adjoint: bool):
    def build():
        families = tuple(f for f in FAMILIES if f not in RACY_FAMILIES)
        spec = generate_case(k, seed=0, families=families)
        proc = build_procedure(spec, name=f"case{k}")
        bindings = make_bindings(spec, spec.n)
        if not adjoint:
            return proc, bindings
        ind, dep = spec.independents(), spec.dependents()
        adj = differentiate(proc, ind, dep, strategy="formad")
        return adj.procedure, adjoint_bindings(adj, bindings, ind, dep,
                                               seed=k)
    return build


PROGRAMS: Dict[str, Callable] = {
    "gfmc-primal": _kernel(lambda: gfmc_spec(npair=2)),
    "gfmc-formad": _kernel(lambda: gfmc_spec(npair=2), "formad"),
    "lbm-primal": _kernel(lambda: lbm_spec(20)),
    "lbm-formad": _kernel(lambda: lbm_spec(20), "formad"),
    "greengauss-primal": _kernel(lambda: greengauss_spec(200)),
    "greengauss-formad": _kernel(lambda: greengauss_spec(200), "formad"),
    "stencil8-primal": _kernel(lambda: large_stencil_spec(50)),
    **{f"stencil8-{s}": _kernel(lambda: large_stencil_spec(50), s)
       for s in STENCIL_STRATEGIES},
    **{f"audit{k}-{side}": _audit_case(k, side == "formad")
       for k in range(AUDIT_CASES) for side in ("primal", "formad")},
}


#: ``program -> (event stream digest, final memory digest)``.
GOLDEN: Dict[str, Tuple[str, str]] = {
    "audit0-formad": (
        "08128de1ac6f64589f0e8491b2b1221f9cac0d04b7aae5254cde56490cab1385",
        "5acd3c86af627575ae3b62c77872493e6ba7c913ef28c7a45c80cb403397882a"),
    "audit0-primal": (
        "445e4822e66688962c9326b5a2f47142c30518c148cca03d23abe74e59e73484",
        "676dba2ed9bec5a84299c7fefb082f912d19fb8fba29856a813d5ee4e5601118"),
    "audit1-formad": (
        "5318bc464df61ea85ac3bc33c4599516f4e35ee2957bb135a484dd8f0ea58cc2",
        "24d78281d80551201dcd8296d2e7b5ec5475a3978de48d344ce6efb5dc5498e1"),
    "audit1-primal": (
        "0df3753b577d423a26e7360e6b746c6a2453893e0b3f94cde95a3d114ae7fdfc",
        "f55e8b91b633dade65fae1103e87077f45dc590acfa8fe1ef06443f214c957a8"),
    "audit10-formad": (
        "e39777ff3a0f625d9863b38029c39ddd461954c7fa9f7e66eb1e4dc8db466379",
        "bfadea515d4bc21b229d160daf3ff0e9079aae3b58b6833e0df1935d9b973514"),
    "audit10-primal": (
        "84a20d233d82c8c6600584fb5cc14ef62f0077d590a1cba27c7a6f756bbd1b3f",
        "f0e0a45cf148cd12c662cd6bf3fd98f32851d270f27d431ced666d1a0eaea571"),
    "audit11-formad": (
        "84243ef1753dc7cadf95b353aa9eab4fe8e7a56013f742c5463080e53c5f4acd",
        "7c7203363158f574e37aa40c18d8ba0aa661af59a6447b3b9f14399ac427f52c"),
    "audit11-primal": (
        "fae32d952c82d90f9451038cf50e2c59f8acf780e6b398aca9678988cc6f0145",
        "66a1730bc1d5a802c232e6e045bfc8179d15ae4967f9b1cf554496d08602c8d0"),
    "audit12-formad": (
        "49edf6f17d882e48218e952801192addbf0b2696558e9ebc21ff0f216dcc0757",
        "dc053662f1e0fd02b4e1b59d204169e524db2eceaa507fb6d0577cae503f6c3c"),
    "audit12-primal": (
        "fecf091dc2009a86b7498e05845fd5a1a16bda3fd733d9ba6288908f8522821f",
        "90c9725f5a833ca28029a2527c803fca84aa56871bb142ab9381207f2b9b32b6"),
    "audit13-formad": (
        "01702b887f57883517cbd48960fba60330bafe77c02a2e697d8d50d4f6d49ba3",
        "946a31c694e593518247efab6000c079c7c9d5631f7c3f0ef41d02a41fafc2ed"),
    "audit13-primal": (
        "380933f35a1258b1e212f7ec8b421fbe02b015dac32490f68a640f78425bfa3d",
        "63538598fa89d0dc10daace88a54f85370a12dfc7ea2a4c0fa0b0939c9e4f0b9"),
    "audit14-formad": (
        "744c5f2d248ceeaa8302a16597dcf1cc8db8d73aa2d305b5776bd07650407880",
        "9ab8f8c592c0fd327984be39a6a8c4578a72b6a8ef75bacb61d9170d7d1f892d"),
    "audit14-primal": (
        "cf7091cca4e289abcf606b134fc343dab1d76975525351f6913b81952ba221d4",
        "3ad915e932b3bace3703d8d2c41341bd002007a49ef35b4736efdf7a1e576428"),
    "audit15-formad": (
        "b50bbbf8d36d1d414889c8ebca592754ce7ee9ee074e3c796a396eb067ed298b",
        "d51b5d0626cd03554a93648cc346208032c9179b62b223a800aa09a41a2c38c3"),
    "audit15-primal": (
        "09e061efdfe42e8d8e402b7ca0f81b14c2ca6943dbd31a593a0f358bb595354c",
        "6d465ed8ac610516c008961a2723c5261f728d85896543901933d6d41ace7c01"),
    "audit16-formad": (
        "628abf8642b008b3c4c2843fb932b0a211df28855b0e8ee17707c410ef124514",
        "39449d5ee8300324e410bff01793d51c22f5a3e039575faa7796d27d8c1f6597"),
    "audit16-primal": (
        "1392ee7a4b415acbabb0e80a87a8f8201e950b37e037aae80889bd629b4b02fd",
        "12489a6f9ecade33d211c4a66d94d9ae62b7e96d055bfc0a377475ce95eeb646"),
    "audit17-formad": (
        "b31e6fd2a7e688937231790ef55e6c17e44d3df70bfcdc250d8f504699e63e43",
        "e5f0c43d4ac7cc9dfaa12751039f6435d76b60f902aa7183eacb348c194ec62e"),
    "audit17-primal": (
        "eb1d98650acbf1898829cf4f25a36a39e59989abd4deaa8dc74936974adf55ed",
        "dfc3cccb76ec13b229f4dfcdfd4b2a8392508cf90546c02a0e0bfc73eb454821"),
    "audit18-formad": (
        "aedf4ee12d0d6bbfe3f29af13bb91646cf3e429ccb1973b89db132e271f2f05f",
        "d8a0c27d661474165c049ddda64cc3cecfe9cde2b96b9264f88bd27b283be713"),
    "audit18-primal": (
        "f7d31e8028c8ba1ca9f798540b8192be440d63d89fa232e54aba1718a885fb57",
        "c3e8c83fe2f4ae1f0111392b61775c9c9f5bf2c448fc352d0471f4844ef92ece"),
    "audit19-formad": (
        "5318bc464df61ea85ac3bc33c4599516f4e35ee2957bb135a484dd8f0ea58cc2",
        "5f52313b0f71bc5b74c0df2f78e18fd55f1ab678685db242985e9d1f650f0ab3"),
    "audit19-primal": (
        "0df3753b577d423a26e7360e6b746c6a2453893e0b3f94cde95a3d114ae7fdfc",
        "5d28b8f7e5f30b908becc7e068cf89fe9313cc91081c2b11de9ffff0a990b089"),
    "audit2-formad": (
        "b4b66a55ef74662be06d00ea4f5f1506695a60f97dad0d59164b4396d327d630",
        "47ab0c4ba32a9279e0badd95050e2dfac2dd27c9d0df87f20e8d75222a0a5d5b"),
    "audit2-primal": (
        "f3d2ac4933ef5f38420e57c571a5ca59c1bd139cc5de41bb89d48f382a88e1b2",
        "fe719630e35b71e5cd13fc0579095bdbb46adc66f6d4a693f9671da5cfcb8e73"),
    "audit3-formad": (
        "6ad2116548de6ddf566f05ec11c246ca952f08f9a2b4f91f652089f4f81c9bfd",
        "933b5b2d472ee49712c48b98f06f6e0d73c04bfa4df5b10a2e57b59655616c74"),
    "audit3-primal": (
        "1f404f0caaa0c67e0ce6b53c71e2479619ccd557ccf6c737e6fb43281e1807a9",
        "677f5576d6468c3a9448b366e9a503e998bfbb6593d3ebc415af8a0e58851e12"),
    "audit4-formad": (
        "f9fa287da14c98c023da3fed2e625ebaef48f8402ffb105e81a9730dd9a1045e",
        "5a4e91decea4b27c0785f7ec370b2fd1788708dd7136fcc837d42bb94fbd18a0"),
    "audit4-primal": (
        "130523d05f27bd3585a8257026e6a4763b8e68a3b44e64feaeb15a4ccf8f98ee",
        "094db668a107adda6e5451cb79030ae276c479308fed435aa7c0d7e075c85709"),
    "audit5-formad": (
        "b9380300c6b238fdde94122ba36c2f2650d371c6a9c58f60a2b53839fc661b2c",
        "c7accc559a552dbc406a80f3951bf74eaa757b4a245b9dfaf89885e86481aa54"),
    "audit5-primal": (
        "06e61ea3398dc5b8ce9d9d4fd21e3c5b929fc796e710da8fdc69685897680504",
        "095cb898f3742373ad5139390dea61cba6dc6c9d621d9f609059d88fee5450a3"),
    "audit6-formad": (
        "9a1272130226ed2e19fc8627cf906f5107e8d834cb3a3387a62081cdefdf27ea",
        "95222ab5bdc70861f43d4233620d7defc788728926b9d7f25e4eff7663b62da8"),
    "audit6-primal": (
        "09051d1892f949c900a39e592f905d66c531d32ec759f1b0543bd1d083520f70",
        "0350fffb87da2d34363d5d91e6ffff8764f2aec05c37289a952f56318ff5449e"),
    "audit7-formad": (
        "fff8f1d6b6abed93bfaf357829365b6a9cf72622d0afdf11137e0f9075292b7b",
        "fbcbb0e976224235ad794c3e415973762234924004be4299dd570fb0b832a395"),
    "audit7-primal": (
        "612d78c8691338a23282e858ec30a3b5b141bc3c8219e07fe2bac5e8711b5384",
        "3856e8a588f7a810d86bce3d3473f4efd6c281bd9347ee0580d891a67c4950f1"),
    "audit8-formad": (
        "87ce25f09e062625db065defd9c82ae78de4f6c7958cad57efcea8443d92650c",
        "3d9b598e89bdeba1c93d7eda68598bf893925796feb1ee9ebc4bb13c5535f414"),
    "audit8-primal": (
        "9e88029955d31673326c7b936d807b315333daf808a5985e954940a1bbf331b6",
        "d4f5fb83445a0273a500722212ca60f359a8adae44858b1b1e1812c801d6fc32"),
    "audit9-formad": (
        "84ac1a690091f5238098ae3ae19dcdd0817cc9dc80894c10496439903e0cc0e9",
        "5d6abf4b0e7e566db8e4afca93fe747da1d9638101f7847d0e34a2a82eaaf64a"),
    "audit9-primal": (
        "ef6e86f06e422c3798b49c53a3140cf050a404ad9d7780dd1a2343b8cd9b66f2",
        "1f95cf12065dbe55dfc696493b044467a7696ebbd40c4c1cb91bec2c971c4ae6"),
    "gfmc-formad": (
        "3dc04436038ce53767026cad1770c98f097a9b87fdf1d0775e81622382fa5988",
        "d78137644c03a6c79b37afb57d5e66653051e1a73468d335ebedee0a45ea9133"),
    "gfmc-primal": (
        "140b688200ae9b761357573e9d9e06a9e1ca9c64c7de68bb204ae2441920f5f2",
        "02f05c09f6256b42c3a80598a06e54b1307a90bad0b08c5e498e1dd819765313"),
    "greengauss-formad": (
        "4cfdefca34456df78dfc3239ac1b2a5c895f5fa8dfa7cd8c6ff64f418118e2f8",
        "9001e712783e9ddc7f21ccd1d057d6d8934485d1b1926b60bd4891d363319b5d"),
    "greengauss-primal": (
        "ce0a92fee384ae755ef6b6be26b62006f0c89e490581548ce3751b66df0a42ba",
        "d4cfecd106f2bcf72570d6940220d553da009edcd4ed342eb915b430d9e748db"),
    "lbm-formad": (
        "8a1a4b4ef220c0ee2dcd0cfb4c65ed52f1dabf32a4625877e1da2f17a8d95454",
        "6c7c2060db0a0c0e798d7c45eda5fee4777daa13938a16627225e61b1c35896a"),
    "lbm-primal": (
        "14cfca26be15e2cd1509d21cda5ec81089ca4230192f7ee1c52d6b8a90a3a1c3",
        "8b2b8b2cbffc53f6e76f92984fcc39359f43cee93111b4c86f634ed664920e6e"),
    "stencil8-atomic": (
        "901bbd1d871ae6e21c26169f94a3754e79cd0988730586daab9d583b37395e81",
        "6e1aa0cbfab3bc01db0e3f4a6ac7429cef07ba7d9685bfd33f3416917f20b6ed"),
    "stencil8-formad": (
        "70e047e085c0341c5cf20ba28dad2a55b454f918fb9d5c1d1480e979f9c0b819",
        "6e1aa0cbfab3bc01db0e3f4a6ac7429cef07ba7d9685bfd33f3416917f20b6ed"),
    "stencil8-preaccumulate": (
        "3fecab9c558c9234ab6b3181095e94c51c11b5abcc109033016e8ee95ed333f9",
        "6c72d4c07f1511e698f1d6862a0e80b83e4616348d9dae0e031bcbafd9f80b88"),
    "stencil8-primal": (
        "23795d472b401074896f05c6b4ed3874ebedbbaf1bfe6b31049a8029605e4b3f",
        "206baf4b534af8ae2812e992f038799a9316992e845403023d10c56d766451c9"),
    "stencil8-reduction": (
        "70e047e085c0341c5cf20ba28dad2a55b454f918fb9d5c1d1480e979f9c0b819",
        "6e1aa0cbfab3bc01db0e3f4a6ac7429cef07ba7d9685bfd33f3416917f20b6ed"),
    "stencil8-transposed": (
        "fa3b2d65d7e1638a99b9801fe3497a3070e251955726263d234476b91a6734eb",
        "dd89c1c7510d390b6e1eee70bc20f4a651eea5c263541275c568ed3aae87232f"),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_event_stream_and_memory_match_golden(name):
    assert run_digests(*PROGRAMS[name]()) == GOLDEN[name]


def test_recorder_overrides_every_callback():
    callbacks = {n for n in vars(Tracer) if n.startswith("on_")}
    assert callbacks and callbacks <= set(vars(RecordingTracer))


if __name__ == "__main__":
    for program in sorted(PROGRAMS):
        events, memory = run_digests(*PROGRAMS[program]())
        print(f'    "{program}": (\n        "{events}",\n        "{memory}"),')
