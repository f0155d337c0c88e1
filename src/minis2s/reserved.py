"""The reserved token ids every vocabulary starts with: the CTC blank,
the out-of-vocabulary token and the shared start/end-of-sequence token,
in that order, ahead of the real tokens."""

RESERVED_TOKENS = ["<blank>", "<unk>", "<sos/eos>"]
BLANK_ID = 0
UNK_ID = 1
SOS_EOS_ID = 2
N_RESERVED = 3
