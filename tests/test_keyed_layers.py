"""The gather and the keyed-layer constructor against their plain forms.

``space._gather(seq, index)`` reads the entries of a sequence, or of a
mapping, at ``index`` by one ``operator.itemgetter``, which gives a bare
item for a single index.  ``Process.keyed`` builds the predictable process
a solve emits: per-atom keys for each time, one value per distinct key.
These ``hypothesis`` tests check the gather against
``tuple(seq[i] for i in index)`` for index lengths 0, 1 and many, over
tuples and over dicts with tuple keys (as value keys are), and the keyed
process against ``reference.row_encoded`` of its per-atom values (zero at
time 0), which shares no code with ``space._layer``, in both modes, layer
for layer: the same partition object, the same denominator and the same
entries, floats by their bits, so 0.0 and -0.0 stay apart.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from marketforge.space import Process, _gather

from test_atom_kernels import MODES, markets, numbers
from util import bits

INDEX_SIZES = st.sampled_from([0, 1, 2, 7])


@given(seq=st.lists(st.integers(-5, 5), min_size=1, max_size=12), size=INDEX_SIZES,
       data=st.data())
def test_gather_reads_a_tuple_at_the_index(seq, size, data):
    seq = tuple(seq)
    index = data.draw(st.lists(st.integers(0, len(seq) - 1), min_size=size, max_size=size))
    got = _gather(seq, index)
    assert type(got) is tuple
    assert got == tuple(seq[i] for i in index)
    assert _gather(seq, tuple(index)) == got


@given(items=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             st.integers(-5, 5), min_size=1, max_size=12),
       size=INDEX_SIZES, data=st.data())
def test_gather_reads_a_dict_at_its_keys(items, size, data):
    index = data.draw(st.lists(st.sampled_from(sorted(items)), min_size=size, max_size=size))
    got = _gather(items, index)
    assert type(got) is tuple
    assert got == tuple(items[key] for key in index)


def _bits(part, cols, den) -> tuple:
    return part, den, [[bits(a) for a in col] for col in cols]


@pytest.mark.parametrize("mode", MODES)
@given(data=st.data())
def test_keyed_layers_are_the_predictable_process_of_their_table(mode, data):
    """Keys drawn from a small pool, so values repeat within a time and
    across times; each key's value is one vector, shared by its atoms."""
    space, F = data.draw(markets(MODES[mode]))
    dim = data.draw(st.integers(0, 3))
    keys = [tuple(data.draw(st.lists(st.integers(0, 3), min_size=part.size,
                                     max_size=part.size)))
            for part in F.partitions[:-1]]
    values = {key: data.draw(st.tuples(*[numbers(space.arith)] * dim))
              for key in set().union(*keys)}
    X = Process.keyed(F, keys, values, dim)
    start = F.at(0), [(0,) * dim] * F.at(0).size
    want = [ref.row_encoded(part, cells) for part, cells in
            [start, *((part, [values[key] for key in ks]) for part, ks in zip(F.partitions, keys))]]
    assert [_bits(*layer) for layer in X.layers] == \
        [_bits(part, list(zip(*rows)), den) for part, rows, den in want]
    assert X.dim == dim
