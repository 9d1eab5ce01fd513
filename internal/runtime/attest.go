package runtime

import (
	"fmt"
	"io"

	"rex/internal/attest"
	"rex/internal/seccha"
)

// EnclaveMeasurement is the simulated enclave identity every REX node
// reports and requires of its peers (Config.Measurement).
var EnclaveMeasurement = attest.MeasureCode([]byte("rex-enclave-v1"))

// nodesPerPlatform groups enclaves onto simulated SGX machines: the paper
// runs two processes per machine (§IV-C).
const nodesPerPlatform = 2

// Collateral manufactures the attestation infrastructure and the platforms
// of an n-node cluster, nodesPerPlatform consecutive nodes to a platform,
// with every key drawn from entropy. Equal entropy yields equal collateral
// (attest.Infrastructure.NewPlatform is a pure function of its reads), so
// the processes of one cluster agree on it by reading one seed's stream.
func Collateral(n int, entropy io.Reader) (*attest.Infrastructure, []*attest.Platform, error) {
	inf := attest.NewInfrastructure()
	platforms := make([]*attest.Platform, n)
	for i := range platforms {
		if i%nodesPerPlatform != 0 {
			platforms[i] = platforms[i-1]
			continue
		}
		p, err := inf.NewPlatform(entropy)
		if err != nil {
			return nil, nil, err
		}
		platforms[i] = p
	}
	return inf, platforms, nil
}

// attestAll performs the §III-A mutual attestation with every neighbor:
// hellos out, quotes exchanged, channels derived. Gossip from peers that
// finish attesting us early is buffered raw for the first gather round.
func (r *runner) attestAll() error {
	exchanges := make(map[int]*attest.Exchange, len(r.cfg.Neighbors))
	for _, nb := range r.cfg.Neighbors {
		ex, err := attest.NewExchange(r.cfg.Platform, r.cfg.Infra, r.cfg.Measurement, r.cfg.Entropy)
		if err != nil {
			return err
		}
		exchanges[nb] = ex
		hello, err := ex.Hello()
		if err != nil {
			return err
		}
		if err := r.cfg.Endpoint.Send(nb, wrap(kindAttest, hello)); err != nil {
			return err
		}
		r.stats.BytesOnWire += int64(1 + len(hello))
	}
	r.channels = make(map[int]*seccha.Channel, len(r.cfg.Neighbors))
	remaining := len(exchanges)
	for remaining > 0 {
		env, st := r.recv(nil)
		if st != recvOK {
			return fmt.Errorf("endpoint closed with %d peers unattested", remaining)
		}
		if len(env.Data) == 0 {
			return fmt.Errorf("empty frame from %d", env.From)
		}
		if IsGossipFrame(env.Data) {
			// A peer that finished attesting us may start epoch 0 while
			// we still attest others; buffer its gossip for the loop.
			r.bufferPending(env.From, env.Data)
			continue
		}
		if env.Data[0] != kindAttest {
			return fmt.Errorf("unknown frame kind %d from %d", env.Data[0], env.From)
		}
		ex, ok := exchanges[env.From]
		if !ok {
			return fmt.Errorf("attestation message from non-neighbor %d", env.From)
		}
		reply, err := ex.HandleMessage(env.Data[1:])
		if err != nil {
			return fmt.Errorf("peer %d: %w", env.From, err)
		}
		if reply != nil {
			if err := r.cfg.Endpoint.Send(env.From, wrap(kindAttest, reply)); err != nil {
				return err
			}
			r.stats.BytesOnWire += int64(1 + len(reply))
		}
		if ex.Complete() && r.channels[env.From] == nil {
			key, err := ex.ChannelKey()
			if err != nil {
				return err
			}
			ch, err := seccha.NewChannel(key, r.cfg.Node.Cfg.ID < env.From)
			if err != nil {
				return err
			}
			r.channels[env.From] = ch
			r.stats.Attested++
			remaining--
		}
	}
	return nil
}
