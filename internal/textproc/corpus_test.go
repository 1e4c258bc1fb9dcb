package textproc_test

import (
	"fmt"
	"testing"

	"repro/internal/forum"
	"repro/internal/textproc"
)

// TestForumPostsMatchReference runs generated posts of all four forum
// domains through the front end and the reference, plain, with the
// benchmark's kind of tail token ("zq<n>x") before the sentence ends, and
// wrapped in the markup a forum export carries.
func TestForumPostsMatchReference(t *testing.T) {
	for d := forum.TechSupport; d <= forum.Health; d++ {
		for id := 0; id < 150; id++ {
			text := forum.GeneratePost(d, id, 42).Text
			textproc.CheckAgainstReference(t, text)
			tailed := ""
			for i, c := range text {
				if (c == '.' || c == '?' || c == '!') && i%3 != 0 {
					tailed += fmt.Sprintf(" zq%dx", (id*131+i*7)%200_000)
				}
				tailed += string(c)
			}
			textproc.CheckAgainstReference(t, tailed)
			textproc.CheckAgainstReference(t, "<div><p>"+tailed+"</p>\n<br/>&nbsp;<i>"+text+"</i></div>")
		}
	}
}
