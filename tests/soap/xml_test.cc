#include "wsq/soap/xml.h"

#include <optional>

#include <gtest/gtest.h>

#include "support/xml.h"

namespace wsq {
namespace {

TEST(XmlEscapeTest, EscapesAllSpecials) {
  XmlNode node("t");
  node.set_text("a<b>c&d\"e'f");
  EXPECT_EQ(ToXml(node), "<t>a&lt;b&gt;c&amp;d&quot;e&apos;f</t>");
  node.set_text("plain");
  EXPECT_EQ(ToXml(node), "<t>plain</t>");
}

TEST(LocalNameTest, StripsPrefix) {
  EXPECT_EQ(LocalName("soapenv:Body"), "Body");
  EXPECT_EQ(LocalName("Body"), "Body");
  EXPECT_EQ(LocalName("a:b:c"), "c");
}

TEST(XmlNodeTest, BuildAndSerialize) {
  XmlNode root("root");
  root.AddAttribute("version", "1");
  XmlNode child("child");
  child.set_text("hello & <world>");
  root.AddChild(std::move(child));
  EXPECT_EQ(ToXml(root),
            "<root version=\"1\"><child>hello &amp; &lt;world&gt;"
            "</child></root>");
}

TEST(XmlNodeTest, SelfClosingWhenEmpty) {
  XmlNode node("empty");
  EXPECT_EQ(ToXml(node), "<empty/>");
}

TEST(ParseXmlTest, RoundTripsGeneratedDocument) {
  XmlNode root("doc");
  root.AddAttribute("a", "x\"y");
  XmlNode inner("inner");
  inner.set_text("text with <specials> & 'quotes'");
  root.AddChild(std::move(inner));
  const std::string serialized = ToXml(root);

  Result<XmlNode> parsed = ParseXml(serialized);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name(), "doc");
  EXPECT_EQ(AttributeOf(parsed.value(), "a"), "x\"y");
  ASSERT_EQ(parsed.value().children().size(), 1u);
  EXPECT_EQ(parsed.value().children()[0].text(),
            "text with <specials> & 'quotes'");
}

TEST(ParseXmlTest, SkipsXmlDeclaration) {
  Result<XmlNode> parsed =
      ParseXml("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a><b/></a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name(), "a");
  ASSERT_EQ(parsed.value().children().size(), 1u);
  EXPECT_EQ(parsed.value().children()[0].name(), "b");
}

TEST(ParseXmlTest, Attributes) {
  Result<XmlNode> parsed =
      ParseXml("<a x=\"1\" y='two' ns:z=\"&amp;\"/>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(AttributeOf(parsed.value(), "x"), "1");
  EXPECT_EQ(AttributeOf(parsed.value(), "y"), "two");
  EXPECT_EQ(AttributeOf(parsed.value(), "ns:z"), "&");
  EXPECT_EQ(AttributeOf(parsed.value(), "missing"), std::nullopt);
}

TEST(ParseXmlTest, NestedChildren) {
  Result<XmlNode> parsed = ParseXml(
      "<env><body><op><f1>1</f1><f2>2</f2></op></body></env>");
  ASSERT_TRUE(parsed.ok());
  const XmlNode* body = parsed.value().Child("body").value();
  const XmlNode* op = body->Child("op").value();
  EXPECT_EQ(op->ChildText("f1").value(), "1");
  EXPECT_EQ(op->ChildText("f2").value(), "2");
  EXPECT_EQ(op->ChildText("f3").status().code(), StatusCode::kNotFound);
}

TEST(ParseXmlTest, MalformedInputs) {
  EXPECT_FALSE(ParseXml("").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
  EXPECT_FALSE(ParseXml("<a></b>").ok());
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>&unknown;</a>").ok());
  EXPECT_FALSE(ParseXml("<a>&brokenentity</a>").ok());
  EXPECT_FALSE(ParseXml("<a x=1></a>").ok());
  EXPECT_FALSE(ParseXml("<a x=\"1></a>").ok());
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());
  EXPECT_FALSE(ParseXml("just text").ok());
  EXPECT_FALSE(ParseXml("< a></a>").ok());
}

TEST(ParseXmlTest, WhitespaceTolerantEndTags) {
  Result<XmlNode> parsed = ParseXml("<a><b>x</b ></a >");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().children()[0].text(), "x");
}

TEST(ParseXmlTest, MixedTextAndElements) {
  Result<XmlNode> parsed = ParseXml("<a>pre<b/>post</a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().text(), "prepost");
  EXPECT_EQ(parsed.value().children().size(), 1u);
}

TEST(ParseXmlTest, LargePayloadSurvives) {
  std::string payload(200000, 'x');
  const std::string doc = "<a>" + payload + "</a>";
  Result<XmlNode> parsed = ParseXml(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().text().size(), payload.size());
}

}  // namespace
}  // namespace wsq
