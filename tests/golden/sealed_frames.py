"""Independent computation of three sealed frames (single, batch, 2PC) as
recipe-core's AuthLayer builds them: HMAC from Python's hmac, HChaCha20 written
out here, the ChaCha20 keystream from `openssl enc -chacha20`."""
import hmac, hashlib, struct, subprocess

def H(key, msg): return hmac.new(key, msg, hashlib.sha256).digest()

def rotl(x, n): return ((x << n) & 0xffffffff) | (x >> (32 - n))
def qr(s, a, b, c, d):
    s[a] = (s[a] + s[b]) & 0xffffffff; s[d] = rotl(s[d] ^ s[a], 16)
    s[c] = (s[c] + s[d]) & 0xffffffff; s[b] = rotl(s[b] ^ s[c], 12)
    s[a] = (s[a] + s[b]) & 0xffffffff; s[d] = rotl(s[d] ^ s[a], 8)
    s[c] = (s[c] + s[d]) & 0xffffffff; s[b] = rotl(s[b] ^ s[c], 7)
def hchacha(key, inp):
    s = list(struct.unpack('<4I', b'expand 32-byte k')) + list(struct.unpack('<8I', key)) + list(struct.unpack('<4I', inp))
    for _ in range(10):
        qr(s,0,4,8,12); qr(s,1,5,9,13); qr(s,2,6,10,14); qr(s,3,7,11,15)
        qr(s,0,5,10,15); qr(s,1,6,11,12); qr(s,2,7,8,13); qr(s,3,4,9,14)
    return struct.pack('<8I', *(s[0:4] + s[12:16]))
def xchacha(key, nonce24, data):
    sub = hchacha(key, nonce24[:16])
    iv = b'\0\0\0\0' + b'\0\0\0\0' + nonce24[16:]   # block counter 0 || 96-bit nonce
    out = subprocess.run(['openssl', 'enc', '-chacha20', '-K', sub.hex(), '-iv', iv.hex()], input=data, capture_output=True, check=True).stdout
    assert len(out) == len(data)
    return out

master = bytes([9]) * 32
cipher_key = bytes([3]) * 32
chan = H(master, b'cq:1->2')
enc = H(cipher_key, b'recipe.cipher.enc')
commit = H(cipher_key, b'recipe.cipher_commit.v1')

def tuple_bytes(view, src, dst, counter): return struct.pack('<4Q', view, src, dst, counter)

def channel_block(src, dst):
    # What the channel key is bound to: domain, zeros, src | dst in the last 16 bytes.
    return b'recipe.frame_mac.v2'.ljust(48, b'\0') + struct.pack('<2Q', src, dst)

def frame(tag, field, body, counter):
    view, src, dst = 0, 1, 2
    t = tuple_bytes(view, src, dst, counter)
    ct = xchacha(enc, t[8:], body)
    # channel block | tag | sealed | view | counter | field | len u32 | body | commitment
    header = bytes([tag, 1]) + struct.pack('<2Q', view, counter) + field + struct.pack('<I', len(ct))
    mac = H(chan, channel_block(src, dst) + header + ct + commit)
    return bytes([tag, 1]) + t + mac + field + struct.pack('<I', len(ct)) + ct

def bstr(b): return struct.pack('<I', len(b)) + b
single = frame(1, struct.pack('<H', 4), b'secret balance=100', 1)
ops = struct.pack('<I', 2) + b''.join(struct.pack('<H', 7) + bstr(p) for p in [b'op0', b'op1'])
batch = frame(2, struct.pack('<I', 2), ops, 2)
prepare = bytes([0x08, 0]) + struct.pack('<I', 1) + bytes([0]) + bstr(b'account:7') + bstr(b'balance=100')
txn = frame(3, struct.pack('<Q', 7), prepare, 3)
for name, f in [('single', single), ('batch', batch), ('txn', txn)]:
    print(name, len(f)); print(f.hex())
