import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn import pauli
from cpdyn.chart import ChartPoint, to_chart
from cpdyn.flow import FlowSettings, classical_hamiltonian, grad_conj, hamilton_rhs
from cpdyn.flow import integrate_classical
from cpdyn.pauli import (
    HERMITIAN_RTOL,
    MixedLabelLengthError,
    PauliSyntaxError,
    PauliTerm,
    build_hamiltonian,
    build_two_qubit_hamiltonian,
    format_terms,
    parse_hamiltonian,
    require_hermitian,
)
from cpdyn.quantum import TimeGrid, evolve_exact_grid, evolve_rk4, make_state
from cpdyn.scenario import ConfigError, scenario_from_dict

from conftest import perfbench_module, random_hermitian, random_state
from oracles import (
    build_hamiltonian_reference,
    require_hermitian_reference,
    tensor_term_reference,
)

ROOT = Path(__file__).resolve().parent.parent


def test_pauli_matrix_standard_convention():
    # a one-qubit term with coefficient 1 is the Pauli matrix itself
    for label, matrix in (
        ("Z", [[1, 0], [0, -1]]),
        ("I", [[1, 0], [0, 1]]),
        ("Y", [[0, -1j], [1j, 0]]),
        ("X", [[0, 1], [1, 0]]),
    ):
        np.testing.assert_array_equal(build_hamiltonian([PauliTerm(1.0, (label,))]), matrix)


def test_tensor_term_zi_is_diagonal():
    mat = build_hamiltonian([PauliTerm(1.0, ("Z", "I"))])
    np.testing.assert_allclose(mat, np.diag([1, 1, -1, -1]))


def test_tensor_term_yy_antidiagonal():
    # hand Kronecker expansion: rows 0..3 couple to columns 3..0
    mat = build_hamiltonian([PauliTerm(1.0, ("Y", "Y"))])
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    np.testing.assert_allclose(mat, expected)


def test_tensor_term_scalar_multiple_of_identity():
    np.testing.assert_allclose(build_hamiltonian([PauliTerm(2.5, ("I",))]), 2.5 * np.eye(2))


def test_tensor_term_qubit_cap():
    # refused before H is allocated: numpy reports its allocations to
    # tracemalloc, and at 20 or 40 qubits H could not be allocated at all
    tracemalloc.start()
    try:
        for n_qubits in (13, 20, 40):
            with pytest.raises(ValueError, match="dense-matrix cap"):
                build_hamiltonian([PauliTerm(1.0, tuple("I" * n_qubits))])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# every entry point that takes a number, with the number in one place, and
# the name its error gives
ENTRY_POINTS = {
    "make_state": (lambda v: make_state([v, 0.0]), "state amplitudes"),
    "ChartPoint": (lambda v: ChartPoint(0, [v]), "chart coordinates"),
    "to_chart": (lambda v: to_chart([1.0, v], 0), "state"),
    "require_hermitian": (
        lambda v: require_hermitian([[v, 0.0], [0.0, 1.0]]),
        "operator entries",
    ),
    "PauliTerm": (lambda v: PauliTerm(v, ("Z", "I")), "coefficient"),
    "TimeGrid": (lambda v: TimeGrid(v, 0.1), "t_end"),
    "FlowSettings": (lambda v: FlowSettings(v), "switch_threshold"),
}
# each refused number, with the rule its error gives
REFUSED_NUMBERS = {
    "bool": (True, "must be a real number"),
    "string": ("1", "must be a real number"),
    "int-overflow": (10**400, "must be finite, not an integer beyond the float range"),
    "nan": (float("nan"), "must be finite"),
}


@pytest.mark.parametrize("value, rule", REFUSED_NUMBERS.values(), ids=REFUSED_NUMBERS)
@pytest.mark.parametrize("entry, name", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_points_share_the_number_rules(entry, name, value, rule):
    # one rule per kind of number (`require_real`, `require_numbers`): a
    # boolean or a string was read as a number, and an integer beyond the
    # float range raised a bare OverflowError, at some entry points
    with pytest.raises(ValueError, match=re.escape(f"{name} {rule}")):
        entry(value)


def test_pauli_term_invariants():
    with pytest.raises(ValueError):
        PauliTerm(1.0, ())
    with pytest.raises(ValueError):
        PauliTerm(float("inf"), ("Z",))
    with pytest.raises(ValueError):
        PauliTerm(1.0, ("Q",))


class TestParser:
    def test_single_term(self):
        terms = parse_hamiltonian("1.0*ZI")
        assert terms == [PauliTerm(1.0, ("Z", "I"))]

    def test_three_terms_order_preserved(self):
        terms = parse_hamiltonian("1*ZI + 10*YY + 10*XY")
        assert [t.labels for t in terms] == [("Z", "I"), ("Y", "Y"), ("X", "Y")]
        assert [t.coefficient for t in terms] == [1.0, 10.0, 10.0]

    def test_mixed_length_rejected(self):
        with pytest.raises(MixedLabelLengthError):
            parse_hamiltonian("1.0*ZX + 2.0*XYZ")

    def test_whitespace_insensitive(self):
        assert parse_hamiltonian(" 1.0*ZI+0.5*XY\t-\n2*YY ") == parse_hamiltonian(
            "1.0*ZI + 0.5*XY - 2*YY"
        )

    def test_negative_and_signed_terms(self):
        terms = parse_hamiltonian("-1.5*ZZ + 2e-3*XX")
        assert terms[0].coefficient == -1.5
        assert terms[1].coefficient == 2e-3

    @pytest.mark.parametrize(
        "text,pos_hint",
        [
            ("", "position 0"),
            ("1.0*", "position 4"),
            ("*ZI", "position 0"),
            ("1.0 ZI", "position 4"),
            ("1.0*ZI + ", "position 9"),
            ("1.0*ZI 2*XX", "position 7"),
            ("1.0*QQ", "position 4"),
            ("1*ZI +-2*XX", "position 6"),
            ("1*ZI -", "position 6"),
            ("-", "position 1"),
            ("1e*ZI", "position 1"),
            ("1*zi", "position 2"),
            ("1*Z I", "position 4"),
            ("1*ZI2*XX", "position 4"),
        ],
    )
    def test_syntax_error_carries_position(self, text, pos_hint):
        with pytest.raises(PauliSyntaxError) as err:
            parse_hamiltonian(text)
        assert pos_hint in str(err.value)

    @pytest.mark.parametrize(
        "text,want",
        [
            ("  -1*ZI", [(-1.0, "ZI")]),
            ("1 * ZI", [(1.0, "ZI")]),
            ("1*ZI\n+\t2*XX", [(1.0, "ZI"), (2.0, "XX")]),
            # any Unicode whitespace separates, as str.isspace() defines it
            ("1*ZI\xa0+ 2*XX", [(1.0, "ZI"), (2.0, "XX")]),
            ("+.5e-3*XY - 2.*YY", [(5e-4, "XY"), (-2.0, "YY")]),
        ],
    )
    def test_accepted_spellings(self, text, want):
        assert parse_hamiltonian(text) == [PauliTerm(c, tuple(s)) for c, s in want]

    @given(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
                ),
                st.text(alphabet="IXYZ", min_size=2, max_size=2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200)
    def test_format_parse_round_trip(self, raw):
        terms = [PauliTerm(c, tuple(s)) for c, s in raw]
        assert parse_hamiltonian(format_terms(terms)) == terms

    def test_numpy_typed_inputs_normalized(self, rng):
        coeffs = rng.uniform(-5, 5, 2)
        terms = [
            PauliTerm(coeffs[0], ("Z", "I")),
            PauliTerm(coeffs[1], tuple(np.array(["X", "Y"]))),
        ]
        assert isinstance(terms[0].coefficient, float)
        assert parse_hamiltonian(format_terms(terms)) == terms


class TestTwoQubitHamiltonian:
    def test_c1_only_diagonal(self):
        np.testing.assert_allclose(
            build_two_qubit_hamiltonian(3.0, 0, 0, 0, 0), np.diag([3.0, 3.0, -3.0, -3.0])
        )

    def test_c4_coupling_sign(self):
        H = build_two_qubit_hamiltonian(0, 0, 0, 7.0, 0)
        assert H[0, 3] == pytest.approx(-7.0)

    def test_all_zero(self):
        np.testing.assert_array_equal(
            build_two_qubit_hamiltonian(0, 0, 0, 0, 0), np.zeros((4, 4))
        )

    def test_hermitian_for_random_couplings(self, rng):
        for _ in range(50):
            c = rng.uniform(-10, 10, 5)
            H = build_two_qubit_hamiltonian(*c)
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_matches_amplitude_equations(self, rng):
        # -iH(a,b,c,d) entrywise against the four coupled amplitude ODEs
        for _ in range(100):
            c1, c2, c3, c4, c5 = rng.uniform(-10, 10, 5)
            H = build_two_qubit_hamiltonian(c1, c2, c3, c4, c5)
            a, b, c, d = random_state(rng, 4)
            expected = -1j * np.array(
                [
                    c1 * a + (c2 - 1j * c3) * c + (-c4 - 1j * c5) * d,
                    c1 * b + (c2 - 1j * c3) * d + (c4 + 1j * c5) * c,
                    -c1 * c + (c2 + 1j * c3) * a + (c4 - 1j * c5) * b,
                    -c1 * d + (c2 + 1j * c3) * b + (-c4 + 1j * c5) * a,
                ]
            )
            got = -1j * (H @ np.array([a, b, c, d]))
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_build_hamiltonian_hermitian_and_parsed(rng):
    for _ in range(20):
        k = int(rng.integers(1, 5))
        terms = [
            PauliTerm(rng.uniform(-5, 5), tuple(rng.choice(list("IXYZ"), 3)))
            for _ in range(k)
        ]
        H = build_hamiltonian(parse_hamiltonian(format_terms(terms)))
        assert H.shape == (8, 8)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_require_hermitian_rejects_bad_input():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="at least 2"):
        require_hermitian(np.ones((1, 1)))
    with pytest.raises(ValueError, match="finite"):
        require_hermitian(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="finite"):
        require_hermitian(np.array([[1, np.inf], [np.inf, 1]]))


def test_require_hermitian_passes_exactly_hermitian_input(rng):
    # H equal to H^dag entry by entry has a residue of exactly 0
    signed_zeros = np.diag([1.0, -1.0]).astype(complex)
    signed_zeros[0, 1], signed_zeros[1, 0] = complex(0.0, 0.0), complex(-0.0, 0.0)
    assert np.signbit(signed_zeros[1, 0].real) != np.signbit(signed_zeros[0, 1].real)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    for H in (np.zeros((4, 4), dtype=complex), signed_zeros, (a + a.conj().T) / 2):
        assert require_hermitian(H) is H
    for seed in (1, 2, 3):
        for doc in _high_dim_documents(seed):
            H = build_hamiltonian(parse_hamiltonian(doc["hamiltonian"]["pauli"]))
            assert np.array_equal(H, H.conj().T)
            assert require_hermitian(H) is H


def _peak_ratio(H: np.ndarray) -> float:
    """Peak memory traced inside `require_hermitian(H)`, over H.nbytes."""
    tracemalloc.start()
    try:
        require_hermitian(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / H.nbytes


def test_require_hermitian_peak_memory(rng):
    # the check meets H^dag in blocks of `_HERMITIAN_BLOCK` = 32 columns, so
    # at N = 256 each temporary of a block (the conjugated rows, H - H^dag
    # and its modulus) takes at most 1/8 of H.nbytes.  Measured peaks: 0.39
    # for an H equal to H^dag and 0.50 for an H with a residue; one whole
    # N x N temporary (H^dag, say) alone is 1.0 and fails either bound
    n = 256
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    residue = (q * rng.uniform(-1, 1, n)) @ q.conj().T
    assert np.max(np.abs(residue - residue.conj().T)) > 0
    assert _peak_ratio((a + a.conj().T) / 2) <= 0.6
    assert _peak_ratio(residue) <= 0.75


def _verdict(check, H: np.ndarray):
    """("passed", whether H came back as it was) or ("refused", message)."""
    try:
        return "passed", check(H) is H
    except ValueError as err:
        return "refused", str(err)


@pytest.mark.parametrize("n", [33, 64, 65, 100])
def test_require_hermitian_by_blocks_decides_as_the_whole_matrix(n, rng):
    # one-ulp asymmetries pass through the residue path and asymmetries past
    # the bound are refused, in the first block, in the last (partial for
    # 33, 65 and 100; one column for 65), on either side of the first block
    # boundary and on the diagonal (an imaginary part), with the message of
    # the check over the whole matrix.  Mirrored +-0.0 pairs pass, in the
    # corners and inside the first off-diagonal block
    block = pauli._HERMITIAN_BLOCK
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    hermitian = (a + a.conj().T) / 2
    bound = HERMITIAN_RTOL * np.finfo(float).eps * n * np.max(np.abs(hermitian))
    cases = [(hermitian, "passed")]
    for i, j in ((0, n - 1), (min(block + block // 2, n - 1), block // 2)):
        mirrored_zeros = hermitian.copy()
        mirrored_zeros[i, j] = complex(0.0, -0.0)
        mirrored_zeros[j, i] = complex(-0.0, 0.0)
        cases.append((mirrored_zeros, "passed"))
    for i, j in ((0, 1), (n - 1, block - 1), (n - 2, n - 1), (block, block - 1),
                 (block - 1, block)):
        x = hermitian[i, j]
        for shift, want in ((np.spacing(x.real), "passed"), (2 * bound, "refused")):
            H = hermitian.copy()
            H[i, j] = complex(x.real + shift, x.imag)
            cases.append((H, want))
    k = n - 1
    for shift, want in ((np.spacing(hermitian[k, k].real), "passed"), (bound, "refused")):
        H = hermitian.copy()
        H[k, k] += 1j * shift
        cases.append((H, want))
    for H, want in cases:
        got = _verdict(require_hermitian, H)
        assert got == _verdict(require_hermitian_reference, H)
        assert got[0] == want and got[1] is not False  # a passed H comes back


@pytest.mark.parametrize(
    "n, scale, bound",
    [(4, 1.0, 1.4210854715202004e-14), (4, 2.0**20, 1.4901161193847656e-08),
     (64, 1.0, 2.2737367544323206e-13)],
)
def test_hermitian_tolerance_in_numbers(n, scale, bound):
    # the bound 16 eps N max|H| of `require_hermitian`, written out: 2^-46
    # at N = 4 and max|H| = 1, 2^-26 at max|H| = 2^20, 2^-42 at N = 64.  A
    # residue of half the bound passes and one of twice it is refused, so
    # `HERMITIAN_RTOL` cannot move by 2x either way unnoticed (the residues
    # are powers of two, exact in float64)
    for factor, want in ((0.5, "passed"), (2.0, "refused")):
        H = np.diag(np.resize([1.0, -1.0, 0.5, 0.0], n)).astype(complex)
        H[0, 1] = H[1, 0] = 0.25 + 0.5j * factor * bound / scale
        H *= scale
        assert np.max(np.abs(H)) == scale
        assert np.max(np.abs(H - H.conj().T)) == factor * bound
        assert _verdict(require_hermitian, H)[0] == want


def test_parse_peak_memory():
    # the Pauli build and its Hermiticity check form no N x N array beside
    # H: the build's temporaries are bounded by its chunk of entries, the
    # check's by its block of columns (the whole-matrix check peaked at
    # 2.07 x)
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 4, (64, 10))
    terms = [
        PauliTerm(c, tuple("IXYZ"[k] for k in row))
        for c, row in zip(rng.uniform(-1.0, 1.0, 64), labels)
    ]
    tracemalloc.start()
    try:
        H = require_hermitian(build_hamiltonian(terms))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * H.nbytes, peak / H.nbytes


def residue_hamiltonian(factor: float, scale: float) -> np.ndarray:
    """N=4 with max|H| = scale and max|H - H^dag| = `factor` times the
    bound; exact in float64 for a power-of-two scale."""
    r = factor * HERMITIAN_RTOL * np.finfo(float).eps * 4
    H = np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex)
    H[0, 1] = H[1, 0] = 0.25 + 0.5j * r
    return H * scale


def _start(H):
    return np.eye(len(H))[0]


_GRID = TimeGrid(t_end=1e-3, dt=1e-3)

# every public entry that takes H, as a function of H and a unit state psi
# with psi[0] = 1 (the chart point is psi in the chart anchored at 0)
ENTRY_POINTS = {
    "evolve_exact_grid": lambda H, psi: evolve_exact_grid(H, psi, _GRID),
    "evolve_rk4": lambda H, psi: evolve_rk4(H, psi, _GRID),
    "integrate_classical": lambda H, psi: integrate_classical(
        H, ChartPoint(0, psi[1:]), _GRID
    ),
    "classical_hamiltonian": lambda H, psi: classical_hamiltonian(H, ChartPoint(0, psi[1:])),
    "grad_conj": lambda H, psi: grad_conj(H, ChartPoint(0, psi[1:])),
    "hamilton_rhs": lambda H, psi: hamilton_rhs(H, ChartPoint(0, psi[1:])),
    "scenario_from_dict": lambda H, psi: scenario_from_dict(
        {
            "hamiltonian": {"dense": {"real": H.real.tolist(), "imag": H.imag.tolist()}},
            "initial_state": {"real": psi.tolist()},
            "grid": {"t_end": 1e-3, "dt": 1e-3},
            "observables": ["populations"],
        }
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_hermiticity_rule(entry, rng):
    def call(H):
        return ENTRY_POINTS[entry](H, _start(H))

    for scale in (2.0**-10, 1.0, 2.0**20):
        with pytest.raises(ValueError, match="not Hermitian"):
            call(residue_hamiltonian(1.01, scale))
        call(residue_hamiltonian(0.99, scale))
    for scale in (1e-3, 1.0, 1e6):
        call(random_hermitian(rng, 8) * scale)
    # eigenbasis-built H carries rounding residue; it must not count
    n = 256
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    H = (q * rng.uniform(-1, 1, n)) @ q.conj().T
    assert np.max(np.abs(H - H.conj().T)) > 0
    call(H)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_dimension_rule(entry):
    # `quantum.spectrum(H, n)`, the one entry of H to every route, checks the
    # length, with one message everywhere
    document = entry == "scenario_from_dict"
    message = "dimension mismatch: H is (3, 3), state has 2"
    if document:
        message = "hamiltonian.dense: " + message
    with pytest.raises(ConfigError if document else ValueError,
                       match="^" + re.escape(message) + "$"):
        ENTRY_POINTS[entry](np.eye(3), np.array([1.0, 0.0]))


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    """Equal bit patterns: a -0.0 for a 0.0 would change a CSV field."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def pauli_sums(draw):
    """1-8 qubits, 1-40 terms with signed coefficients of magnitude 1e-8 to
    1e8; some terms repeat an earlier label string, with its coefficient
    negated (the two cancel exactly) or with a fresh one."""
    n = draw(st.integers(1, 8))
    labels = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coefficients = st.builds(
        lambda sign, magnitude: sign * magnitude,
        st.sampled_from((1.0, -1.0)),
        st.floats(min_value=1e-8, max_value=1e8),
    )
    terms = []
    for _ in range(draw(st.integers(1, 40))):
        if terms and draw(st.booleans()):
            earlier = draw(st.sampled_from(terms))
            c = -earlier.coefficient if draw(st.booleans()) else draw(coefficients)
            terms.append(PauliTerm(c, earlier.labels))
        else:
            terms.append(PauliTerm(draw(coefficients), tuple(draw(labels))))
    return terms


def _high_dim_documents(seed: int) -> list[dict]:
    """The documents of the benchmark's `high-dim` workload for `seed`."""
    workloads = perfbench_module("workloads")
    rng = np.random.default_rng(seed)
    return [
        workloads.high_dim_doc(rng, f"high-dim-{seed}-{k}")
        for k in range(workloads.HIGH_DIM_DOCS)
    ]


class TestBuildBitIdentity:
    """The signed-permutation build against the sum of Kronecker products."""

    @given(pauli_sums())
    def test_random_sums(self, terms):
        assert_same_bits(build_hamiltonian(terms), build_hamiltonian_reference(terms))

    @pytest.mark.parametrize(
        "path", sorted((ROOT / "scenarios").glob("*.json")), ids=lambda p: p.stem
    )
    def test_bundled_scenarios(self, path):
        terms = parse_hamiltonian(json.loads(path.read_text())["hamiltonian"]["pauli"])
        assert_same_bits(build_hamiltonian(terms), build_hamiltonian_reference(terms))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_high_dim_documents(self, seed):
        for doc in _high_dim_documents(seed):
            terms = parse_hamiltonian(doc["hamiltonian"]["pauli"])
            assert len(terms) == 64 and terms[0].n_qubits == 8
            assert_same_bits(build_hamiltonian(terms), build_hamiltonian_reference(terms))

    @pytest.mark.parametrize("chunk", [1, 8, 24, 100])
    def test_across_chunk_edges(self, chunk, monkeypatch):
        # 3 qubits, 40 terms in chunks of 1, 1, 3 and 12 terms: 24 random
        # strings whose flip masks are not 0b101, 10 repeats of them with
        # fresh or negated coefficients, and +c/-c pairs on the only strings
        # with flip mask 0b101, whose entries cancel to +0.0 (dyadic c, so
        # every partial sum is exact)
        monkeypatch.setattr(pauli, "_BUILD_CHUNK", chunk)
        rng = np.random.default_rng(32)
        strings = []
        while len(strings) < 24:
            s = "".join(rng.choice(list("IXYZ"), 3))
            if [c in "XY" for c in s] != [True, False, True]:
                strings.append(s)
        terms = [PauliTerm(c, tuple(s)) for c, s in zip(rng.uniform(-2, 2, 24), strings)]
        for k in range(10):
            earlier = terms[int(rng.integers(len(terms)))]
            c = -earlier.coefficient if k % 2 else float(rng.uniform(-2, 2))
            terms.append(PauliTerm(c, earlier.labels))
        for at, (c, s) in zip((3, 11, 20), ((0.75, "XIY"), (-1.5, "YZX"), (3.0, "XZX"))):
            terms[at:at] = [PauliTerm(c, tuple(s))]
            terms.append(PauliTerm(-c, tuple(s)))
        assert len(terms) == 40
        H = build_hamiltonian(terms)
        assert_same_bits(H, build_hamiltonian_reference(terms))
        rows = np.arange(8)
        assert not H[rows, rows ^ 0b101].view(np.uint64).any()  # +0.0, both parts

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_tensor_term_every_label_string(self, n_qubits):
        for labels in itertools.product("IXYZ", repeat=n_qubits):
            for c in (1.0, -2.5, 0.0, -0.0):
                term = PauliTerm(c, labels)
                got = build_hamiltonian([term])
                assert_same_bits(got, build_hamiltonian_reference([term]))
                # the Kronecker product itself, up to the sign of its zeros
                np.testing.assert_array_equal(got, tensor_term_reference(term))
