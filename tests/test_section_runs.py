"""Run-kept boot sections against the eager section model.

``SparseMemoryModel.probe_online`` keeps boot memory as runs whose
sections become objects only on first access. :class:`EagerSections`
below is the model before that change, kept as the oracle: on any
sequence of operations both must return the same sections, raise the
same errors and report the same presence, counts and online bytes.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import AddressError
from repro.osmodel import MemorySection, SectionState, SparseMemoryModel

SECTION = 1 << 20
INDICES = 24


class EagerSections:
    """One object per section from the moment it is probed."""

    def __init__(self, section_bytes):
        self.section_bytes = section_bytes
        self._sections: Dict[int, MemorySection] = {}

    def index_of(self, address):
        if address < 0:
            raise AddressError(f"negative address: {address:#x}")
        return address // self.section_bytes

    def probe(self, start, size):
        return self._create(start, size, SectionState.OFFLINE, None)

    def probe_online(self, start, size, numa_node):
        return len(self._create(start, size, SectionState.ONLINE, numa_node))

    def _create(self, start, size, state, numa_node):
        if start % self.section_bytes or size % self.section_bytes:
            raise AddressError(
                f"probe [{start:#x}, +{size:#x}) not aligned to "
                f"{self.section_bytes:#x}-byte sections"
            )
        if size <= 0:
            raise AddressError(f"probe size must be > 0: {size}")
        first = self.index_of(start)
        indices = range(first, first + size // self.section_bytes)
        if not self._sections.keys().isdisjoint(indices):
            index = next(i for i in indices if i in self._sections)
            raise AddressError(f"section {index} already present")
        created = [
            MemorySection(index, self.section_bytes, state, numa_node)
            for index in indices
        ]
        self._sections.update(zip(indices, created))
        return created

    def remove(self, index):
        section = self.section(index)
        if section.state is not SectionState.OFFLINE:
            raise AddressError(
                f"section {index} must be OFFLINE to remove "
                f"(is {section.state.value})"
            )
        return self._sections.pop(index)

    def online(self, index, numa_node):
        section = self.section(index)
        if section.state is not SectionState.OFFLINE:
            raise AddressError(
                f"section {index} must be OFFLINE to online "
                f"(is {section.state.value})"
            )
        section.state = SectionState.ONLINE
        section.numa_node = numa_node
        return section

    def begin_offline(self, index):
        section = self.section(index)
        if section.state is not SectionState.ONLINE:
            raise AddressError(
                f"section {index} must be ONLINE to offline "
                f"(is {section.state.value})"
            )
        section.state = SectionState.GOING_OFFLINE
        return section

    def finish_offline(self, index):
        section = self.section(index)
        if section.state is not SectionState.GOING_OFFLINE:
            raise AddressError(
                f"section {index} not GOING_OFFLINE "
                f"(is {section.state.value})"
            )
        section.state = SectionState.OFFLINE
        section.numa_node = None
        return section

    def section(self, index):
        try:
            return self._sections[index]
        except KeyError:
            raise AddressError(f"no section at index {index}") from None

    def section_at(self, address):
        return self.section(self.index_of(address))

    def present(self, index):
        return index in self._sections

    def sections(self):
        for index in sorted(self._sections):
            yield self._sections[index]

    def online_sections(self, numa_node=None):
        return [
            s
            for s in self.sections()
            if s.online and (numa_node is None or s.numa_node == numa_node)
        ]

    def total_online_bytes(self, numa_node=None):
        return len(self.online_sections(numa_node)) * self.section_bytes

    def __len__(self):
        return len(self._sections)


def view(value):
    """Comparable form of a result: sections by index, state and node."""
    if isinstance(value, MemorySection):
        return (value.index, value.state, value.numa_node, value.range)
    if isinstance(value, list):
        return [view(item) for item in value]
    return value


def outcome(model, op, args):
    try:
        result = getattr(model, op)(*args)
        if op == "sections":
            result = list(result)
        return ("ok", view(result))
    except AddressError as error:
        return ("error", str(error))


index = st.integers(min_value=0, max_value=INDICES - 1)
node = st.integers(min_value=0, max_value=2)
count = st.integers(min_value=1, max_value=8)

OPERATIONS = st.one_of(
    st.tuples(st.just("probe"), index, count).map(
        lambda t: (t[0], (t[1] * SECTION, t[2] * SECTION))
    ),
    st.tuples(st.just("probe_online"), index, count, node).map(
        lambda t: (t[0], (t[1] * SECTION, t[2] * SECTION, t[3]))
    ),
    st.tuples(st.just("probe"), st.integers(1, SECTION - 1)).map(
        lambda t: (t[0], (t[1], SECTION))
    ),
    st.tuples(
        st.sampled_from(
            ["remove", "begin_offline", "finish_offline", "section",
             "present"]
        ),
        index,
    ).map(lambda t: (t[0], (t[1],))),
    st.tuples(st.just("online"), index, node).map(
        lambda t: (t[0], (t[1], t[2]))
    ),
    st.tuples(st.just("section_at"), st.integers(-1, INDICES * SECTION)).map(
        lambda t: (t[0], (t[1],))
    ),
    st.tuples(st.just("online_sections"), st.one_of(st.none(), node)).map(
        lambda t: (t[0], (t[1],))
    ),
    st.just(("sections", ())),
)


class TestMatchesEagerSections:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ops=st.lists(OPERATIONS, max_size=40))
    def test_random_operation_sequences(self, ops):
        runs = SparseMemoryModel(SECTION)
        eager = EagerSections(SECTION)
        for op, args in ops:
            assert outcome(runs, op, args) == outcome(eager, op, args), (
                op, args,
            )
            assert len(runs) == len(eager)
            for numa_node in (None, 0, 1, 2):
                assert runs.total_online_bytes(numa_node) == (
                    eager.total_online_bytes(numa_node)
                )
            assert [runs.present(i) for i in range(INDICES)] == [
                eager.present(i) for i in range(INDICES)
            ]


def _runs(model: SparseMemoryModel) -> List[Tuple[int, int, int]]:
    return sorted(model._runs)


class TestBootRuns:
    def test_boot_sections_stay_one_run_until_touched(self):
        model = SparseMemoryModel(SECTION)
        assert model.probe_online(0, 512 * SECTION, 0) == 512
        assert len(model) == 512
        assert not model._sections
        assert _runs(model) == [(0, 512, 0)]

    def test_touching_a_section_splits_its_run(self):
        model = SparseMemoryModel(SECTION)
        model.probe_online(0, 8 * SECTION, 1)
        section = model.section(3)
        assert section.online and section.numa_node == 1
        assert model.section(3) is section
        assert _runs(model) == [(0, 3, 1), (4, 8, 1)]
        model.begin_offline(3)
        model.finish_offline(3)
        model.remove(3)
        assert not model.present(3)
        assert len(model) == 7
