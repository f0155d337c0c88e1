"""Model assembly: front ends, encoder/decoder bodies, task heads.

One factorization serves every task: EncPre -> EncBody -> DecPre ->
DecBody -> DecPost. Speech input goes through a subsampling front end,
text input through an embedding; the bodies are swappable between a
Transformer and an RNN without changing any interface shape.

Padded batches: every forward, down to the modules and tape ops, takes
a batch only, with every row's length given, and one utterance is a
batch of one. The ASR/ST forward takes B utterances' frames padded to
the longest, (B, n_max, feat_dim) with each row's true length beside it
(pad_sequences builds both), the TTS forward texts as a padded (B,
n_max) id array and targets as a padded (B, N_max, feat_dim) array, the
LM a padded (B, n_max) id array; encoder outputs, decoder outputs,
log-probabilities and attention records all keep the leading batch
axis. Row b's first lens[b] entries are real: tensor.length_mask is the
one statement of that rule, which every mask here is built from, and
tensor.pad_batch the one padder of ragged rows. Each row's convolution
input and tail (the speech front ends', the Postnet's) are zeroed stage
by stage at its own length, key-padding masks hide its padded frames
from every attention (the encoder's self-attention, the decoder's
source attention, the LSTM decoder's additive attention), and each
BLSTM direction scans only its real frames, the reverse one starting at
the row's own last frame. The
decoder teacher-forces every row's targets at once (the Transformer
under the causal mask, the LSTM one step of every row at a time), so
positions past a short row's end never reach its real ones. Each row of
a padded batch thus equals the unpadded run of its utterance on the real
frames, whatever the padding holds; outputs past a row's end are left as
they come (the Postnet's are zero) and the losses never read them.

Search: S2SModel, both decoder bodies and RnnLm are steppers, and one
SearchState is the state of every one of them. `init_state` starts it,
for S2SModel one row per utterance of an encoded batch of N,
`step(state, last_tokens)` consumes one token for each of B hypothesis
rows and returns (B, V) next-token log-probabilities, and
`state.select(rows)` keeps, reorders or repeats rows after pruning; each
row keeps its utterance. select gathers the kept rows once, and a step
computes only the new position (the token front end's forward at the
state's position) and appends it: the LSTM decoder carries (h, c) per
layer, the Transformer decoder each layer's self-attention keys and
values. The source side is held once per utterance, as the encoded batch
lays it out (padded to the longest, under a key mask): the Transformer's
projected source keys and values, the LSTM attention's encoder
projection. Each utterance's rows attend over it as one block. An
utterance whose rows select drops leaves the state with its source side,
which is then cut to the longest utterance left. The LSTM decoder's
teacher-forced forward runs the same step with one row per utterance.
TtsModel.infer drives the same body steppers over one text, encoded as a
batch of one, one frame group per step, and refines the frames with the
Postnet as a batch of one.

Fused tape nodes: each direction of a BLSTM layer and the LM's
teacher-forced pass record one node for the whole sequence (nn.LSTM),
and each LSTM decoder or LM step one node per cell (nn.LSTMCell), whose
[h | c] output is sliced into h and c. Every multi-head attention of a
forward is attention.multi_head_attention: three projections, two
head-batched nodes and the output projection; its weights, (H, n_q,
n_k), carry the guided-attention loss's gradient. The Transformer
decoder's step runs the same kernels on plain arrays and records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import attention as A
from . import tensor as T
from .errors import (ConfigError, DataError, DimensionError, check_settings,
                     setting)
from .nn import (Conv, Dropout, Embedding, FeedForward, LayerNorm, Linear,
                 LSTM, LSTMCell, Module, ModuleList, MultiHeadAttention,
                 parameter)
from .reserved import N_RESERVED, SOS_EOS_ID
from .tensor import Tensor


@dataclass
class ModelConfig:
    task: str = setting(choices=("asr", "st", "tts", "lm"))
    body: str = setting(choices=("transformer", "rnn"))
    e: int = setting(12, "[1, inf)")        # encoder layers
    d: int = setting(6, "[1, inf)")         # decoder layers
    d_att: int = setting(256, "[1, inf)")
    d_ff: int = setting(2048, "[1, inf)")
    d_head: int = setting(4, "[1, inf)")
    dropout_rate: float = setting(0.1, "[0, 1)")
    # includes the reserved ids; 0 until training reads it off the data
    vocab_size: int = setting(0, f"[{N_RESERVED + 1}, inf)")
    feat_dim: int = setting(16, "[1, inf)")
    normalize: str = setting(choices=("pre", "post", "none"))
    src_residual: str = setting(choices=("paper", "conventional"))
    enc_pre: str = setting(choices=("conv", "vgg"))  # speech front ends
    alpha: float = setting(0.7, "[0, 1]")  # s2s loss share; 1.0 = no CTC
    # tts
    reduction_factor: int = setting(1, "[1, inf)")
    prenet_units: int = setting(256, "[1, inf)")
    postnet_layers: int = setting(5, "[1, inf)")
    prenet_dropout_rate: float = setting(0.5, "[0, 1)")
    prenet_dropout_at_infer: bool = True
    seed: int = setting(0, "[0, inf)")

    def validate(self) -> "ModelConfig":
        check_settings(self)
        if self.task == "st" and self.alpha != 1.0:
            raise ConfigError("st targets are not monotonic with the source; "
                              "CTC cannot be enabled (alpha must be 1.0)")
        return self

    @property
    def uses_ctc(self) -> bool:
        return self.task == "asr" and self.alpha < 1.0


@dataclass
class EncodedSequence:
    """Encoder output of a padded batch, x_e (B, n_max, d_att), with row
    b's frame count n_sub[b]; frames past a row's count hold no
    meaning."""
    x_e: Tensor
    n_sub: np.ndarray


def pad_sequences(seqs: Sequence[np.ndarray]) -> Tuple[Tensor, np.ndarray]:
    """N (n_i, d) arrays as one (N, n_max, d) batch, zero past each one's
    end, and their lengths, as S2SModel.encode takes speech frames."""
    out, lens = T.pad_batch(seqs, 0.0)
    return Tensor(out), lens


def _key_mask(n_buf: int, lens) -> Optional[np.ndarray]:
    """Key-padding mask of keys 0..n_buf-1 for the rows of a batch, row b
    holding lens[b] real keys, shaped (B, 1, 1, n_buf) to broadcast over
    the (B, H, n_q, n_k) attention weights; None when nothing is
    padded."""
    lens = np.asarray(lens)
    if lens.min() >= n_buf:
        return None
    return T.length_mask(lens, n_buf)[:, None, None, :]


def _zero_tail(x: Tensor, lens) -> Tensor:
    """Kill activations past each row's length so later stages see clean
    zeros. The batch axis is x's first and the frame axis its second, and
    lens holds one count per row."""
    n = x.shape[1]
    lens = np.asarray(lens)
    if lens.min() >= n:
        return x
    keep = T.length_mask(lens, n)
    return x * Tensor(keep.reshape(keep.shape + (1,) * (x.ndim - 2)))


def _front_end_lens(lens, min_frames: int, what: str) -> np.ndarray:
    lens = np.asarray(lens)
    if lens.min() < min_frames:
        raise DataError(f"input of {int(lens.min())} frames is too short for "
                        f"{what} (need >= {min_frames})")
    return lens


# ------------------------------------------------------------- front ends


class ConvSubsampler(Module):
    """Two stride-2 kernel-3 convolutions with ReLU, then projection + PE,
    over a padded (B, n_max, feat_dim) batch whose row b holds lens[b]
    real frames; the input and every stage are zeroed past each row's
    end, so a kernel that reads past it reads the zeros the row's
    unpadded run reads.

    Quarters the frame count: n -> ceil(n/2) -> ceil(ceil(n/2)/2).
    """

    MIN_FRAMES = 4

    def __init__(self, feat_dim: int, d_att: int, dropout_rate: float,
                 rng: np.random.Generator):
        super().__init__()
        self.conv1 = Conv(feat_dim, d_att, (3,), rng, stride=2, padding=1)
        self.conv2 = Conv(d_att, d_att, (3,), rng, stride=2, padding=1)
        self.proj = Linear(d_att, d_att, rng)
        self.drop = Dropout(dropout_rate)

    @staticmethod
    def frames(n):
        """The frames kept of n input frames, an int or an array."""
        return T.conv_len(T.conv_len(n, 3, 2, 1), 3, 2, 1)

    def forward(self, x: Tensor, lens) -> Tuple[Tensor, np.ndarray]:
        lens = _front_end_lens(lens, self.MIN_FRAMES, "two stride-2 stages")
        h = T.relu(self.conv1(_zero_tail(x, lens)))
        h = _zero_tail(h, T.conv_len(lens, 3, 2, 1))
        n_sub = self.frames(lens)
        h = _zero_tail(T.relu(self.conv2(h)), n_sub)
        h = self.drop(A.add_positional_encoding(self.proj(h)))
        return h, n_sub


class VggSubsampler(Module):
    """VGG-style alternative: two blocks of two 3x3 convolutions and a
    max pooling over (frames, features), channels last.

    Frame count drops to floor(n/4); the feature axis is pooled the same
    way and flattened into channel-blocked columns before the
    projection. Takes what ConvSubsampler takes.
    """

    MIN_FRAMES = 4

    def __init__(self, feat_dim: int, d_att: int, dropout_rate: float,
                 rng: np.random.Generator):
        super().__init__()
        if feat_dim < 4:
            raise ConfigError("vgg front end needs feat_dim >= 4")
        c1 = max(1, d_att // 4)
        c2 = max(1, d_att // 2)
        self.conv1a = Conv(1, c1, (3, 3), rng, padding=1)
        self.conv1b = Conv(c1, c1, (3, 3), rng, padding=1)
        self.conv2a = Conv(c1, c2, (3, 3), rng, padding=1)
        self.conv2b = Conv(c2, c2, (3, 3), rng, padding=1)
        self.proj = Linear(c2 * (feat_dim // 4), d_att, rng)
        self.drop = Dropout(dropout_rate)

    @staticmethod
    def frames(n):
        """The frames kept of n input frames, an int or an array."""
        return n // 2 // 2

    @staticmethod
    def _block(x: Tensor, conv_a: Conv, conv_b: Conv,
               lens: np.ndarray) -> Tensor:
        # conv_b reads conv_a's frames one past the end, so they are zeroed;
        # a pooled frame within the halved length reads real frames only,
        # so the pooled tail is zeroed once
        h = _zero_tail(T.relu(conv_a(x)), lens)
        return _zero_tail(T.max_pool2d(T.relu(conv_b(h)), 2), lens // 2)

    def forward(self, x: Tensor, lens) -> Tuple[Tensor, np.ndarray]:
        lens = _front_end_lens(lens, self.MIN_FRAMES, "two pooling stages")
        img = _zero_tail(x, lens).reshape(x.shape + (1,))
        h = self._block(img, self.conv1a, self.conv1b, lens)
        h = self._block(h, self.conv2a, self.conv2b, lens // 2)
        # (B, t, f, c2) -> (B, t, c2*f): channel-blocked columns
        n_b, t4, f4, c2 = h.shape
        h = T.transpose(h).reshape(n_b, t4, c2 * f4)
        out = self.drop(A.add_positional_encoding(self.proj(h)))
        return out, self.frames(lens)


class TokenFrontEnd(Module):
    """Embedding + positional encoding; the decoder-side DecPre for
    token targets and the encoder-side EncPre for text input (TTS)."""

    def __init__(self, vocab_size: int, d_att: int, dropout_rate: float,
                 rng: np.random.Generator, scaled_pe: bool = False):
        super().__init__()
        self.embed = Embedding(vocab_size, d_att, rng)
        self.drop = Dropout(dropout_rate)
        # glorot rows are tiny next to unit-amplitude PE; the usual
        # sqrt(d) factor keeps token identity visible in the sum
        self.scale = float(np.sqrt(d_att))
        self.alpha = parameter((), np.ones) if scaled_pe else None

    def forward(self, ids: np.ndarray, start: int = 0) -> Tensor:
        """(B, n, d_att) rows for a (B, n) array of ids at positions
        start..start+n-1; a search step is one id per row."""
        if np.ndim(ids) != 2:
            raise DimensionError(f"the token front end takes a (B, n) id "
                                 f"array, got shape {np.shape(ids)}")
        y = self.embed(ids) * self.scale
        return self.drop(A.add_positional_encoding(y, self.alpha, start))


# ------------------------------------------------------------- bodies


def _norm(d_att: int, normalize: str, final: bool = False):
    """A sublayer's LayerNorm, or with final the one after a body's last
    layer, which pre-norm alone has. Where there is none (a sublayer's
    under normalize = "none", a final one unless "pre") the identity, with
    no parameter and no tape op, so the post-norm wiring computes the
    unnormalized residual stack."""
    on = normalize == "pre" if final else normalize != "none"
    return LayerNorm(d_att) if on else (lambda x: x)


def _residual(layer, x, f, norm, base=None):
    """One residual sublayer of a Transformer layer around f, for Tensors
    and plain arrays alike: base + drop(f(norm(x))) under normalize =
    "pre", else norm(base + drop(f(x))); base is x unless given."""
    base = x if base is None else base
    if layer.normalize == "pre":
        return base + layer.drop(f(norm(x)))
    return norm(base + layer.drop(f(x)))


class TransformerEncoderLayer(Module):
    def __init__(self, d_att: int, d_ff: int, d_head: int, dropout_rate: float,
                 normalize: str, rng: np.random.Generator):
        super().__init__()
        self.normalize = normalize
        self.mha = MultiHeadAttention(d_att, d_head, rng)
        self.ff = FeedForward(d_att, d_ff, rng)
        self.drop = Dropout(dropout_rate)
        self.ln1 = _norm(d_att, normalize)
        self.ln2 = _norm(d_att, normalize)

    def forward(self, x: Tensor, mask: Optional[np.ndarray]) -> Tensor:
        x = _residual(self, x, lambda h: self.mha(h, h, h, mask)[0], self.ln1)
        return _residual(self, x, self.ff, self.ln2)


class TransformerEncoderBody(Module):
    def __init__(self, e: int, d_att: int, d_ff: int, d_head: int,
                 dropout_rate: float, normalize: str, rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([
            TransformerEncoderLayer(d_att, d_ff, d_head, dropout_rate,
                                    normalize, rng)
            for _ in range(e)])
        self.final_ln = _norm(d_att, normalize, final=True)

    def forward(self, x0: Tensor, lens) -> Tensor:
        """Encoder output of a padded (B, n, d_att) batch whose rows hold
        lens real frames; every frame attends to its row's real frames
        only."""
        mask = _key_mask(x0.shape[-2], lens)
        x = x0
        for layer in self.layers:
            x = layer(x, mask)
        return self.final_ln(x)


class BlstmEncoderLayer(Module):
    def __init__(self, d_in: int, d_att: int, rng: np.random.Generator):
        super().__init__()
        self.fwd = LSTM(d_in, d_att, rng)
        self.bwd = LSTM(d_in, d_att, rng, reverse=True)
        self.proj = Linear(2 * d_att, d_att, rng)

    def forward(self, x: Tensor, lens) -> Tensor:
        both = T.concat([self.fwd(x, lens), self.bwd(x, lens)], axis=-1)
        return T.tanh(self.proj(both))


class BlstmEncoderBody(Module):
    """Stacked bidirectional LSTM; forward/backward states concatenated
    and projected back to d_att after every layer. Takes what
    TransformerEncoderBody takes."""

    def __init__(self, e: int, d_att: int, rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([BlstmEncoderLayer(d_att, d_att, rng)
                                  for _ in range(e)])

    def forward(self, x0: Tensor, lens) -> Tensor:
        x = x0
        for layer in self.layers:
            x = layer(x, lens)
        return x


class TransformerDecoderLayer(Module):
    def __init__(self, d_att: int, d_ff: int, d_head: int, dropout_rate: float,
                 normalize: str, src_residual: str, rng: np.random.Generator):
        super().__init__()
        self.normalize = normalize
        self.src_residual = src_residual
        self.self_mha = MultiHeadAttention(d_att, d_head, rng)
        self.src_mha = MultiHeadAttention(d_att, d_head, rng)
        self.ff = FeedForward(d_att, d_ff, rng)
        self.drop = Dropout(dropout_rate)
        self.ln1 = _norm(d_att, normalize)
        self.ln2 = _norm(d_att, normalize)
        self.ln3 = _norm(d_att, normalize)

    def forward(self, y: Tensor, x_e: Tensor, mask: np.ndarray,
                src_mask: Optional[np.ndarray] = None
                ) -> Tuple[Tensor, Tensor]:
        """The layer's output and its source-attention weights, (B, H,
        n_dec, n_enc)."""
        return self._sublayers(
            y, lambda h: self.self_mha(h, h, h, mask),
            lambda q: self.src_mha(q, x_e, x_e, src_mask), self.ff,
            (self.ln1, self.ln2, self.ln3))

    def step(self, y: np.ndarray, cache: "DecoderLayerCache",
             src_k: np.ndarray, src_v: np.ndarray, groups: "_RowGroups"
             ) -> Tuple[np.ndarray, "DecoderLayerCache"]:
        """The layer's output at the next position of each row of y,
        (B, d_att), attending over the cached earlier positions and over
        the real source frames (groups.key_ok) of the row's utterance,
        whose projected keys and values src_k and src_v are (N, n_enc,
        H*d_att). Plain arrays through forward's kernels, no tape op; a
        layer that would draw dropout masks raises."""
        if self.drop.training and self.drop.rate > 0:
            raise RuntimeError("a decoder step has no dropout: use eval mode")
        grown = []

        def src_att(q: np.ndarray):
            # each utterance's rows query its source as one (S, d_att) block
            out, w = _attend(self.src_mha, groups.blocks(q), src_k, src_v,
                             groups.key_ok)
            return groups.rows(out), w

        def self_att(h: np.ndarray):
            mha = self.self_mha
            grown.append(cache.grow(T.matmul_kernel(h, mha.wk.data),
                                    T.matmul_kernel(h, mha.wv.data)))
            # a query row per hypothesis over (B, t+1, H*d_att) views
            out, w = _attend(mha, h[:, None], grown[0].keys.swapaxes(0, 1),
                             grown[0].values.swapaxes(0, 1), None)
            return out[:, 0], w

        l1, l2 = self.ff.lin1, self.ff.lin2
        out, _ = self._sublayers(
            y, self_att, src_att, lambda x: T.matmul_kernel(T.relu_kernel(
                T.matmul_kernel(x, l1.weight.data) + l1.bias.data),
                l2.weight.data) + l2.bias.data,
            [_array_norm(n) for n in (self.ln1, self.ln2, self.ln3)])
        return out, grown[0]

    def _sublayers(self, y, self_att, src_att, ff, norms):
        """The three residual sublayers around the two attentions and the
        feed-forward, for Tensors and plain arrays alike: self_att(h) and
        src_att(q) give (output, weights), ff and the norms map rows to
        rows. The source sublayer's residual adds the layer input y
        (src_residual = "paper") or the self-attention sublayer's output.
        Returns the layer output and the source-attention weights."""
        ln1, ln2, ln3 = norms
        weights = []

        def src(q):
            out, w = src_att(q)
            weights.append(w)
            return out

        y1 = _residual(self, y, lambda h: self_att(h)[0], ln1)
        y2 = _residual(self, y1, src, ln2,
                       y if self.src_residual == "paper" else y1)
        return _residual(self, y2, ff, ln3), weights[0]


def _attend(mha: MultiHeadAttention, q: np.ndarray, k: np.ndarray,
            v: np.ndarray, mask: Optional[np.ndarray]):
    """mha's multi_head_attention on plain arrays, k and v projected."""
    w = T.attention_weights_kernel(T.matmul_kernel(q, mha.wq.data), k,
                                   mha.n_heads, mask)[0]
    return T.matmul_kernel(T.mix_heads_kernel(w, v), mha.w_head.data), w


def _array_norm(norm):
    """A LayerNorm on plain arrays; normalize = "none"'s identity as is."""
    if not isinstance(norm, LayerNorm):
        return norm
    return lambda x: T.layer_norm_kernel(x, norm.gain.data, norm.bias.data)[0]


class _Positions:
    """Time-major keys and values, (capacity,) + rows each, rows being
    (B, H*d_att), that caches share; the first `used` are written."""

    def __init__(self, capacity: int, rows: tuple):
        self.keys = np.empty((capacity,) + rows)
        self.values = np.empty((capacity,) + rows)
        self.used = 0


@dataclass
class DecoderLayerCache:
    """Search-time cache of one Transformer decoder layer: `keys` and
    `values`, the projected self-attention keys and values of the t
    positions consumed so far, (t, B, H*d_att) views of `past`, a column
    per row. cache[rows] gathers the given rows once, into a buffer with
    room for one more position. grow appends in place when no step has
    written past t (every synthesis step, and the first step after a
    select), doubling a full buffer; else (a second step from one state)
    it copies the t positions into a fresh buffer of exact size."""
    past: _Positions
    t: int

    keys = property(lambda self: self.past.keys[:self.t])
    values = property(lambda self: self.past.values[:self.t])

    def __getitem__(self, rows: np.ndarray) -> "DecoderLayerCache":
        past = _Positions(self.t + 1, (len(rows), self.past.keys.shape[-1]))
        # mode="raise" would go through a temporary; rows are valid
        for old, new in ((self.keys, past.keys), (self.values, past.values)):
            np.take(old, rows, axis=1, out=new[:self.t], mode="clip")
        past.used = self.t
        return DecoderLayerCache(past, self.t)

    def grow(self, k: np.ndarray, v: np.ndarray) -> "DecoderLayerCache":
        """The cache with one more position, whose projected keys and
        values k and v, (B, H*d_att), hold one row per cache row."""
        past, t = self.past, self.t
        if past.used != t or t == len(past.keys):
            past = _Positions(max(16, 2 * t) if past.used == t else t + 1,
                              k.shape)
            past.keys[:t], past.values[:t] = self.keys, self.values
        past.keys[t], past.values[t], past.used = k, v, t + 1
        return DecoderLayerCache(past, t + 1)


class TransformerDecoderBody(Module):
    def __init__(self, d: int, d_att: int, d_ff: int, d_head: int,
                 dropout_rate: float, normalize: str, src_residual: str,
                 rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([
            TransformerDecoderLayer(d_att, d_ff, d_head, dropout_rate,
                                    normalize, src_residual, rng)
            for _ in range(d)])
        self.final_ln = _norm(d_att, normalize, final=True)

    def forward(self, y0: Tensor, x_e: Tensor, src_lens,
                records: Optional[list] = None) -> Tensor:
        """Teacher-forced outputs (B, t, d_att) for inputs y0 (B, t, d_att)
        over a padded batch of encodings x_e (B, n_enc, d_att) whose rows
        hold src_lens real frames. Given a list records, each layer
        appends its (B, H, t, n_enc) source-attention weights to it."""
        mask = A.causal_mask(y0.shape[-2])
        src_mask = _key_mask(x_e.shape[-2], src_lens)
        y = y0
        for layer in self.layers:
            y, w = layer(y, x_e, mask, src_mask)
            if records is not None:
                records.append(w)
        return self.final_ln(y)

    def init_state(self, x_e: Tensor, lens: np.ndarray) -> "SearchState":
        """One row per utterance of the padded (N, n_enc, d_att) encoder
        outputs, utterance i holding lens[i] real frames: an empty cache
        per layer, and each layer's projected source keys and values."""
        past = (x_e.shape[0], self.layers[0].self_mha.wk.shape[1])
        return SearchState(
            [DecoderLayerCache(_Positions(0, past), 0) for _ in self.layers],
            [x_e @ w for layer in self.layers
             for w in (layer.src_mha.wk, layer.src_mha.wv)],
            _RowGroups.start(lens), 0)

    def step(self, state: "SearchState", y: Tensor
             ) -> Tuple[Tensor, "SearchState"]:
        """Output rows (B, d_att) at the next position; forward's last
        row for each row's prefix, with no tape op."""
        h, caches, src = y.data, [], state.source
        for layer, cache, k, v in zip(self.layers, state.rows, src[0::2],
                                      src[1::2]):
            h, cache = layer.step(h, cache, k.data, v.data, state.groups)
            caches.append(cache)
        return Tensor(_array_norm(self.final_ln)(h)), SearchState(
            caches, src, state.groups, state.pos + 1)


class AdditiveAttention(Module):
    """Content-based single-head attention for the RNN decoder: scores
    v^T tanh(W_h h_u + W_s s + b), normalized per step."""

    def __init__(self, d_att: int, rng: np.random.Generator):
        super().__init__()
        self.w_enc = Linear(d_att, d_att, rng, bias=False)
        self.w_state = Linear(d_att, d_att, rng)
        self.v = Linear(d_att, 1, rng, bias=False)

    def forward(self, enc_proj: Tensor, x_e: Tensor, state: Tensor,
                groups: "_RowGroups") -> Tuple[Tensor, Tensor]:
        """Context rows (B, d_att) and weights (N, S, n_k) for decoder
        state rows (B, d_att) laid out by groups, each utterance's S rows
        attending over its encoder output: x_e (N, n_k, d_att), with the
        projection enc_proj (N, 1, n_k, d_att)."""
        shift = groups.blocks(self.w_state(state), keep_axis=True)
        scores = self.v(T.tanh(enc_proj + shift))   # (N, S, n_k, 1)
        scores = scores.reshape(scores.shape[:-1])
        if groups.key_ok is not None:
            scores = scores + Tensor(np.where(groups.key_ok[:, 0], 0.0,
                                              T.MASK_BIAS))
        alpha = T.softmax(scores)
        return groups.rows(alpha @ x_e), alpha


class LstmDecoderBody(Module):
    """Unidirectional LSTM stack; every step attends over the encoder
    output, and the context vector rides along with the token embedding.
    Teacher forcing and search run the same step: a teacher-forced
    forward is one row per utterance of the batch."""

    def __init__(self, d: int, d_att: int, rng: np.random.Generator):
        super().__init__()
        self.attention = AdditiveAttention(d_att, rng)
        cells = [LSTMCell(2 * d_att, d_att, rng)]
        cells += [LSTMCell(d_att, d_att, rng) for _ in range(d - 1)]
        self.cells = ModuleList(cells)
        self.out = Linear(2 * d_att, d_att, rng)
        self.d_att = d_att

    def forward(self, y0: Tensor, x_e: Tensor, src_lens,
                records: Optional[list] = None) -> Tensor:
        """Takes and returns what TransformerDecoderBody.forward does; its
        one attention appends one record, H = 1."""
        # x_e goes in unreshaped, so the gradient terms of every step add
        # straight into it, in tape order with its other users' terms
        state = self.init_state(x_e, src_lens)
        n_b, n_steps = y0.shape[:2]
        outs, alphas = [], []
        for step in range(n_steps):
            out, state = self.step(state, y0[:, step], alphas)
            outs.append(out)
        if records is not None:         # (B, t, n_enc), a head axis per row
            att = T.concat(alphas, axis=1)
            records.append(att.reshape((n_b, 1) + att.shape[1:]))
        # step-major rows -> (B, t, d_att)
        out = T.concat(outs, axis=0)
        return out[np.arange(n_steps) * n_b + np.arange(n_b)[:, None]]

    def init_state(self, x_e: Tensor, lens) -> "SearchState":
        """Rows that have consumed nothing, one per utterance of the padded
        (N, n_enc, d_att) encoder outputs, utterance i holding lens[i]
        real frames: each layer's h, then each layer's c, and as the
        source x_e and its attention projection, (N, 1, n_enc, d_att)."""
        n_utt, n_enc, d = x_e.shape
        enc_proj = self.attention.w_enc(x_e).reshape(n_utt, 1, n_enc, d)
        zeros = [Tensor(np.zeros((n_utt, self.d_att))) for _ in self.cells]
        return SearchState(zeros + zeros, [x_e, enc_proj],
                           _RowGroups.start(lens), 0)

    def step(self, state: "SearchState", y: Tensor,
             alphas: Optional[list] = None) -> Tuple[Tensor, "SearchState"]:
        """Output rows (B, d_att) for input rows y (B, d_att), and the
        state one position on. Given a list alphas, appends the step's
        attention weights, (N, S, n_enc), to it."""
        n = len(self.cells)
        x_e, enc_proj = state.source
        # each utterance's rows attend over its frames as one block
        ctx, alpha = self.attention(enc_proj, x_e, state.rows[n - 1],
                                    state.groups)
        inp = T.concat([y, ctx], axis=1)
        hs, cs = [], []
        for cell, h, c in zip(self.cells, state.rows[:n], state.rows[n:]):
            h, c = cell(inp, h, c)
            hs.append(h)
            cs.append(c)
            inp = h
        out = T.tanh(self.out(T.concat([hs[-1], ctx], axis=1)))
        if alphas is not None:
            alphas.append(alpha)
        return out, SearchState(hs + cs, state.source, state.groups,
                                state.pos + 1)


@dataclass
class SearchState:
    """The state of every stepper (S2SModel, either decoder body, RnnLm)
    over B hypothesis rows. `rows` holds per-row values that x[rows]
    gathers: each LSTM layer's h, then each layer's c, or one
    DecoderLayerCache per Transformer layer. `source` holds per-utterance
    tensors that groups.cut trims: each Transformer layer's projected
    source keys and values, or the LSTM decoder's encoder output and its
    attention projection. `groups` gives each row's utterance and each
    utterance's frames (None for the LM, which reads no source), and
    `pos` the tokens each row has consumed."""
    rows: list
    source: list
    groups: Optional["_RowGroups"]
    pos: int

    def select(self, rows: Sequence[int]) -> "SearchState":
        """The state of the given rows, kept, reordered or repeated after
        pruning, each gathered once; an utterance left without rows
        leaves the source."""
        rows = np.asarray(rows, dtype=np.int64)
        groups = None if self.groups is None else self.groups.select(rows)
        return SearchState([x[rows] for x in self.rows],
                           [groups.cut(s) for s in self.source], groups,
                           self.pos)


class _RowGroups:
    """The rows of a decoder state laid out by utterance, and each
    utterance's source frame count lens. Row b is slot[b] of utterance
    utt[b]'s block in (N, S, d), S the most rows one utterance has;
    key_ok, _key_mask's (N, 1, 1, n_max), marks real source frames, None
    when no utterance is padded. After select, kept holds the indices,
    before it, of the utterances that still have rows (None when all
    do). When each utterance holds one row, in order (teacher forcing,
    and the first search step), blocks and rows are reshapes."""

    def __init__(self, utt: np.ndarray, lens: np.ndarray,
                 kept: Optional[np.ndarray] = None):
        counts = np.bincount(utt, minlength=len(lens))
        order = np.argsort(utt, kind="stable")
        self.slot = np.empty_like(utt)
        self.slot[order] = (np.arange(len(utt))
                            - np.repeat(np.cumsum(counts) - counts, counts))
        self.utt, self.lens, self.kept = utt, lens, kept
        self.shape = (len(lens), int(counts.max()))
        # the row in each block slot; unused slots repeat row 0, and rows()
        # never reads what they give
        self.where = np.zeros(self.shape, dtype=np.int64)
        self.where[utt, self.slot] = np.arange(len(utt))
        self.key_ok = _key_mask(int(lens.max()), lens)
        self.one_row = (self.shape == (len(utt), 1)
                        and bool(np.all(np.diff(utt) > 0)))

    @staticmethod
    def start(lens) -> "_RowGroups":
        """One row per utterance, utterance i holding lens[i] frames."""
        lens = np.asarray(lens)
        return _RowGroups(np.arange(len(lens)), lens)

    def select(self, rows: Sequence[int]) -> "_RowGroups":
        """The layout of the given rows; utterances left without rows
        drop out and the rest are renumbered in order."""
        kept, utt = np.unique(self.utt[rows], return_inverse=True)
        return _RowGroups(utt, self.lens[kept],
                          None if len(kept) == len(self.lens) else kept)

    def cut(self, t: Tensor) -> Tensor:
        """A per-utterance source tensor of the layout before select,
        (N, ..., n_enc, d), cut to the utterances kept and to the longest
        of their frames; no gradient."""
        if self.kept is None:
            return t
        return Tensor(t.data[self.kept, ..., :int(self.lens.max()), :])

    def blocks(self, x: Tensor, keep_axis: bool = False) -> Tensor:
        """(B, d) rows -> (N, S, d) blocks, or (N, S, 1, d) with keep_axis."""
        if self.one_row:
            return x.reshape(self.shape + (1,) * keep_axis + x.shape[-1:])
        return x[self.where[..., None] if keep_axis else self.where]

    def rows(self, x: Tensor) -> Tensor:
        """(N, S, d) blocks -> their (B, d) rows."""
        if self.one_row:
            return x.reshape(self.shape[0], x.shape[-1])
        return x[self.utt, self.slot]


# ------------------------------------------------------------- task models


def _set_up(model, config: ModelConfig, tasks) -> np.random.Generator:
    """Validate config, refuse a task the model does not serve, keep the
    config on the model, and return the rng its weights are drawn from."""
    config.validate()
    if config.task not in tasks:
        raise ConfigError(f"{type(model).__name__} serves "
                          f"{'/'.join(tasks)}, not {config.task!r}")
    model.config = config
    return np.random.default_rng(config.seed)


def _bodies(config: ModelConfig, rng: np.random.Generator):
    """The encoder and decoder bodies config.body names, drawn from rng in
    that order."""
    if config.body == "transformer":
        return (TransformerEncoderBody(config.e, config.d_att, config.d_ff,
                                       config.d_head, config.dropout_rate,
                                       config.normalize, rng),
                TransformerDecoderBody(config.d, config.d_att, config.d_ff,
                                       config.d_head, config.dropout_rate,
                                       config.normalize, config.src_residual,
                                       rng))
    return (BlstmEncoderBody(config.e, config.d_att, rng),
            LstmDecoderBody(config.d, config.d_att, rng))


class S2SModel(Module):
    """ASR/ST model: speech in, token log-probabilities out, with an
    optional CTC head sharing the encoder."""

    def __init__(self, config: ModelConfig):
        super().__init__()
        rng = _set_up(self, config, ("asr", "st"))
        sub_cls = ConvSubsampler if config.enc_pre == "conv" else VggSubsampler
        self.enc_pre = sub_cls(config.feat_dim, config.d_att,
                               config.dropout_rate, rng)
        self.enc_body, self.dec_body = _bodies(config, rng)
        self.dec_pre = TokenFrontEnd(config.vocab_size, config.d_att,
                                     config.dropout_rate, rng)
        self.dec_post = Linear(config.d_att, config.vocab_size, rng)
        self.ctc_post = (Linear(config.d_att, config.vocab_size, rng)
                         if config.uses_ctc else None)

    def encode(self, x: Tensor, lens) -> EncodedSequence:
        """Encode a padded (B, n_max, feat_dim) batch whose row b holds
        lens[b] real frames, whatever lies past them (pad_sequences builds
        both; one utterance is a batch of one), in one pass of the front
        end and the body."""
        if x.ndim != 3:
            raise DimensionError(f"encode takes a padded (B, n_max, feat_dim) "
                                 f"batch, got {x.shape}")
        x0, n_sub = self.enc_pre(x, lens)
        return EncodedSequence(x_e=self.enc_body(x0, n_sub), n_sub=n_sub)

    def decode_logprobs(self, enc: EncodedSequence, ys_in,
                        records: Optional[list] = None) -> Tensor:
        """Log-probabilities for each next token given the prefix so far,
        (B, n_max, V): ys_in holds one sequence of input ids per row of
        the encoded batch, each starting with the start-of-sequence id,
        and the rows past a sequence's end hold no meaning."""
        ids = T.pad_batch(ys_in, SOS_EOS_ID)[0]
        y_d = self.dec_body(self.dec_pre(ids), enc.x_e, enc.n_sub,
                            records=records)
        return T.log_softmax(self.dec_post(y_d))

    def ctc_logprobs(self, enc: EncodedSequence) -> Tensor:
        """Per-frame CTC log-probabilities of an encoded batch, (B, n_max,
        V); frames past a row's n_sub hold no meaning."""
        if self.ctc_post is None:
            raise ConfigError("this model has no CTC head")
        return T.log_softmax(self.ctc_post(enc.x_e))

    def init_state(self, enc: EncodedSequence) -> SearchState:
        """Search state of N hypotheses, row i over row i of the encoded
        batch, that have consumed nothing yet; the first step consumes the
        start-of-sequence id."""
        with T.no_grad():
            return self.dec_body.init_state(enc.x_e, enc.n_sub)

    def step(self, state: SearchState, last_tokens
             ) -> Tuple[np.ndarray, SearchState]:
        """Consume one token per hypothesis row: returns the (B, V)
        next-token log-probabilities, row b equal to the last row of
        decode_logprobs over row b's prefix, and the grown state."""
        with T.no_grad():
            y = self.dec_pre(np.asarray(last_tokens)[:, None], state.pos)
            y_d, state = self.dec_body.step(state, y[:, 0])
            lp = T.log_softmax(self.dec_post(y_d))
        return lp.data, state


@dataclass
class TtsForward:
    """Teacher-forced outputs of a batch of B utterances. Row b's first
    n_pad[b] frames and n_steps[b] steps are real; the rest are padding
    and hold no meaning (the postnet's output is zero there)."""
    coarse: Tensor        # (B, N_max, feat_dim), frame rate
    refined: Tensor       # (B, N_max, feat_dim)
    eos_logits: Tensor    # (B, S_max), decoder rate
    records: List[Tensor]  # per layer, (B, H, S_max, n_enc) source attention
    target: np.ndarray    # (B, N_max, feat_dim) r-padded, zero past n_pad
    n_pad: np.ndarray     # frames per row, a multiple of r
    n_steps: np.ndarray   # decoder steps per row, steps(n_pad)


class Prenet(Module):
    """Feature bottleneck in front of the TTS decoder. Its dropout stays
    active at inference when the config says so; that stochasticity is
    what keeps autoregressive generation from collapsing."""

    def __init__(self, feat_dim: int, units: int, d_att: int, rate: float,
                 always_dropout: bool, rng: np.random.Generator):
        super().__init__()
        self.lin1 = Linear(feat_dim, units, rng)
        self.lin2 = Linear(units, units, rng)
        self.proj = Linear(units, d_att, rng)
        self.rate = rate
        self.always_dropout = always_dropout

    def forward(self, y: Tensor) -> Tensor:
        training = self.training or self.always_dropout
        h = T.dropout(T.relu(self.lin1(y)), self.rate, training=training)
        h = T.dropout(T.relu(self.lin2(h)), self.rate, training=training)
        return self.proj(h)


class Postnet(Module):
    """Five 1-d convolutions refining the coarse spectrogram residually.

    Batch statistics are useless at batch size 1, so the inner layers
    normalize per frame instead (layer_norm substitution).
    """

    def __init__(self, feat_dim: int, channels: int, n_layers: int,
                 dropout_rate: float, rng: np.random.Generator):
        super().__init__()
        convs = []
        for i in range(n_layers):
            c_in = feat_dim if i == 0 else channels
            c_out = feat_dim if i == n_layers - 1 else channels
            convs.append(Conv(c_in, c_out, (5,), rng, stride=1, padding=2))
        self.convs = ModuleList(convs)
        self.norms = ModuleList([LayerNorm(channels)
                                 for _ in range(n_layers - 1)])
        self.drop = Dropout(dropout_rate)

    def forward(self, y: Tensor, lens) -> Tensor:
        """The refinement of coarse frames y, a padded (B, n_max, feat_dim)
        batch whose row b holds lens[b] real frames. Every layer's input
        and output are re-zeroed past each row's end, so each kernel-5
        window reads what the row's unpadded run reads, and the output is
        zero past the end."""
        h = _zero_tail(y, lens)
        for conv, norm in zip(self.convs, self.norms):
            h = _zero_tail(self.drop(T.tanh(norm(conv(h)))), lens)
        return _zero_tail(self.convs[-1](h), lens)


class TtsModel(Module):
    """Text in, feature frames out, with EOS logits per decoder step and
    a reduction factor r grouping r frames per step."""

    def __init__(self, config: ModelConfig):
        super().__init__()
        rng = _set_up(self, config, ("tts",))
        self.enc_pre = TokenFrontEnd(config.vocab_size, config.d_att,
                                     config.dropout_rate, rng, scaled_pe=True)
        self.enc_body, self.dec_body = _bodies(config, rng)
        self.prenet = Prenet(config.feat_dim, config.prenet_units, config.d_att,
                             config.prenet_dropout_rate,
                             config.prenet_dropout_at_infer, rng)
        self.dec_alpha = parameter((), np.ones)
        r = config.reduction_factor
        self.feat_head = Linear(config.d_att, config.feat_dim * r, rng)
        self.eos_head = Linear(config.d_att, 1, rng)
        self.postnet = Postnet(config.feat_dim, config.d_att,
                               config.postnet_layers, config.dropout_rate, rng)

    def encode(self, token_seqs) -> EncodedSequence:
        """Encode a batch of token-id sequences in one pass, padded to the
        longest: x_e (B, n_max, d_att), row b holding n_sub[b] real
        positions, whose keys alone the encoder attends to (a BLSTM scans
        them alone)."""
        ids, lens = T.pad_batch(token_seqs, SOS_EOS_ID)
        if lens.min() == 0:
            raise DataError("empty text input")
        return EncodedSequence(x_e=self.enc_body(self.enc_pre(ids), lens),
                               n_sub=lens)

    def steps(self, n):
        """The decoder steps of n frames, an int or an array: ceil(n/r),
        each step r frames."""
        return -(-n // self.config.reduction_factor)

    def pad_target(self, feats: np.ndarray) -> np.ndarray:
        """Repeat the final frame until the length divides r."""
        n = feats.shape[0]
        rem = self.steps(n) * self.config.reduction_factor - n
        if rem:
            feats = np.concatenate([feats, np.tile(feats[-1:], (rem, 1))])
        return feats

    def forward_teacher(self, enc: EncodedSequence,
                        targets: Sequence[np.ndarray]) -> TtsForward:
        """Teacher-forced forward of a batch: targets holds one (n_b,
        feat_dim) array per row of the encoded batch enc, each padded to a
        multiple of r (pad_target). Decoder step j of a row consumes the
        last frame of its group j-1 (step 0 zeros), all rows at once: the
        Transformer under the causal mask, the LSTM one step of every row
        at a time, so a short row's padded steps never reach its real
        ones. The postnet reads each row's real frames only."""
        r = self.config.reduction_factor
        target, n_pad = T.pad_batch(
            [self.pad_target(np.asarray(t, dtype=np.float64)) for t in targets],
            0.0)
        n_b, n_max, feat_dim = target.shape
        s_max = self.steps(n_max)
        prev = np.zeros((n_b, s_max, feat_dim))
        prev[:, 1:] = target[:, r - 1:(s_max - 1) * r:r]
        records = []
        y0 = self.prenet(Tensor(prev))
        y0 = A.add_positional_encoding(y0, self.dec_alpha)
        y_d = self.dec_body(y0, enc.x_e, enc.n_sub, records=records)
        coarse = self.feat_head(y_d).reshape(n_b, n_max, feat_dim)
        eos_logits = self.eos_head(y_d).reshape(n_b, s_max)
        refined = coarse + self.postnet(coarse, n_pad)
        return TtsForward(coarse=coarse, refined=refined, eos_logits=eos_logits,
                          records=records, target=target, n_pad=n_pad,
                          n_steps=self.steps(n_pad))

    def infer(self, token_ids, eos_threshold: float = 0.5,
              max_frames: int = 400, seed: int = 0) -> Tuple[np.ndarray, str]:
        """Autoregressive generation; returns (frames, stop reason), where
        the reason is "eos" or "cap".

        Each step feeds the last coarse (pre-postnet) frame back through
        the Prenet and advances the cached decoder body by one position,
        emitting r coarse frames and an EOS logit, so cost is linear in
        frames. The postnet runs once over all coarse frames at the end,
        as a batch of one: the output equals forward_teacher's refined
        frames over the generated coarse frames. The Prenet may keep its
        dropout on here, so the pass runs under its own seeded Graph for
        reproducibility.
        """
        r = self.config.reduction_factor
        feat_dim = self.config.feat_dim
        max_steps = max(1, self.steps(max_frames))
        prev = np.zeros((1, feat_dim))
        groups = []
        reason = "cap"
        with T.no_grad(), T.Graph(seed=seed):
            enc = self.encode([token_ids])
            state = self.dec_body.init_state(enc.x_e, enc.n_sub)
            for step in range(max_steps):
                y0 = A.add_positional_encoding(self.prenet(Tensor(prev)),
                                               self.dec_alpha, start=step)
                y_d, state = self.dec_body.step(state, y0)
                groups.append(self.feat_head(y_d).data.reshape(r, feat_dim))
                prev = groups[-1][-1:]
                if T.sigmoid(self.eos_head(y_d)).data[0, 0] > eos_threshold:
                    reason = "eos"
                    break
            coarse = Tensor(np.concatenate(groups)[None])
            refined = (coarse + self.postnet(coarse, [coarse.shape[1]])).data
        return refined[0, :max_frames], reason

    def guided_attention_records(self, records: List[Tensor],
                                 n_layers: int = 2, n_heads: int = 2
                                 ) -> Tensor:
        """Default selection for the guided attention loss: the first
        n_heads heads of each of the last n_layers source-attention
        records of a batch, side by side as (B, K, n_dec, n_enc)."""
        picked = [w if w.shape[1] <= n_heads else w[:, :n_heads]
                  for w in records[-n_layers:]]
        return picked[0] if len(picked) == 1 else T.concat(picked, axis=1)


class RnnLm(Module):
    """Small recurrent LM over target token sequences for decode fusion:
    one LSTM layer of width d_att. It reads vocab_size, d_att and seed of
    its config and no other setting."""

    def __init__(self, config: ModelConfig):
        super().__init__()
        rng = _set_up(self, config, ("lm",))
        self.embed = Embedding(config.vocab_size, config.d_att, rng)
        self.lstm = LSTM(config.d_att, config.d_att, rng)
        self.out = Linear(config.d_att, config.vocab_size, rng)

    def full_logprobs(self, ys_in) -> Tensor:
        """Teacher-forced next-token log-probs, (B, n_max, V), of B input
        id sequences padded to the longest; the forward scan never lets a
        row's padding reach its real positions, whose rows alone hold
        meaning."""
        ids, lens = T.pad_batch(ys_in, SOS_EOS_ID)
        return T.log_softmax(self.out(self.lstm(self.embed(ids), lens)))

    def init_state(self) -> SearchState:
        """One row, (h, c) zero, that has consumed nothing."""
        zero = Tensor(np.zeros((1, self.lstm.cell.d_hidden)))
        return SearchState([zero, zero], [], None, 0)

    def step(self, state: SearchState, last_tokens
             ) -> Tuple[np.ndarray, SearchState]:
        """Consume one token per row; the (B, V) rows equal the last row
        of full_logprobs over each row's prefix."""
        with T.no_grad():
            h, c = self.lstm.cell(self.embed(list(last_tokens)), *state.rows)
            lp = T.log_softmax(self.out(h))
        return lp.data, SearchState([h, c], [], None, state.pos + 1)


def build_model(config: ModelConfig):
    """The model config.task names, built from config alone."""
    return {"tts": TtsModel, "lm": RnnLm}.get(config.task, S2SModel)(config)
